package core

import (
	"testing"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/sim"
)

func TestNewTreeFloodingErrors(t *testing.T) {
	w := newWorld(t, sim.Params{N: 10, L: 10, R: 1, V: 0.1, Seed: 1})
	if _, err := NewTreeFlooding(nil, 0); err == nil {
		t.Error("want nil-world error")
	}
	if _, err := NewTreeFlooding(w, 10); err == nil {
		t.Error("want range error")
	}
}

func TestTreeFloodingStructure(t *testing.T) {
	w := newWorld(t, sim.Params{N: 300, L: 10, R: 1.5, V: 0.3, Seed: 2})
	f, err := NewTreeFlooding(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if f.Source() != 5 || f.parent[5] != -1 || f.when[5] != 0 {
		t.Error("source bookkeeping wrong")
	}
	if !runDone(t, f, 2000) {
		t.Fatalf("tree flooding incomplete after %d steps", w.Time())
	}
	// Every non-source agent has an informed parent with an earlier
	// timestamp.
	for i := 0; i < w.N(); i++ {
		if i == 5 {
			continue
		}
		p := f.parent[i]
		if p < 0 || int(p) >= w.N() {
			t.Fatalf("agent %d has no parent", i)
		}
		if f.when[i] <= f.when[p] {
			t.Fatalf("agent %d informed at %d, parent %d at %d",
				i, f.when[i], p, f.when[p])
		}
	}
	// Walking parents from any node reaches the source without cycles.
	for i := 0; i < w.N(); i++ {
		cur, hops := int32(i), 0
		for cur != 5 {
			cur = f.parent[cur]
			hops++
			if hops > w.N() {
				t.Fatalf("cycle in infection tree starting at %d", i)
			}
		}
	}
}

func TestTreeFloodingMatchesPlainFlooding(t *testing.T) {
	// The instrumented flooding must inform exactly the same number of
	// agents per step as the plain one on identically seeded worlds.
	p := sim.Params{N: 250, L: 10, R: 1.5, V: 0.25, Seed: 3}
	w1 := newWorld(t, p)
	w2 := newWorld(t, p)
	plain, _ := NewFlooding(w1, 0)
	tree, _ := NewTreeFlooding(w2, 0)
	for s := 0; s < 300 && !plain.Done(); s++ {
		plain.Step()
		tree.Step()
		if plain.InformedCount() != tree.InformedCount() {
			t.Fatalf("step %d: plain %d vs tree %d",
				s, plain.InformedCount(), tree.InformedCount())
		}
	}
	if !tree.Done() {
		t.Error("tree flooding did not finish with plain flooding")
	}
}

func TestTreeStats(t *testing.T) {
	w := newWorld(t, sim.Params{N: 400, L: 15, R: 1.5, V: 0.2, Seed: 4})
	f, _ := NewTreeFlooding(w, 0)
	if !runDone(t, f, 3000) {
		t.Fatal("incomplete")
	}
	st := f.Stats()
	if st.Informed != 400 {
		t.Errorf("Informed = %d", st.Informed)
	}
	if st.MaxDepth <= 0 {
		t.Errorf("MaxDepth = %d", st.MaxDepth)
	}
	if st.MeanDepth <= 0 || st.MeanDepth > float64(st.MaxDepth) {
		t.Errorf("MeanDepth = %v, MaxDepth = %d", st.MeanDepth, st.MaxDepth)
	}
	if st.MaxEdgeDelay < 1 {
		t.Errorf("MaxEdgeDelay = %d", st.MaxEdgeDelay)
	}
	if st.CourierFraction < 0 || st.CourierFraction > 1 {
		t.Errorf("CourierFraction = %v", st.CourierFraction)
	}
}

func TestTreeStatsPartial(t *testing.T) {
	// Stats on a truncated run must only count informed agents.
	w := newWorld(t, sim.Params{N: 500, L: 40, R: 1.2, V: 0.1, Seed: 5})
	f, _ := NewTreeFlooding(w, 0)
	f.Step()
	f.Step()
	st := f.Stats()
	if st.Informed != f.InformedCount() {
		t.Errorf("Informed = %d, want %d", st.Informed, f.InformedCount())
	}
	if st.Informed == 500 {
		t.Skip("degenerate: flooding finished in two steps")
	}
}

func TestMeasureMeetingsErrors(t *testing.T) {
	w := newWorld(t, sim.Params{N: 10, L: 10, R: 1, V: 0.1, Seed: 1})
	part, err := cells.NewPartition(10, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureMeetings(nil, part, 10); err == nil {
		t.Error("want nil-world error")
	}
	if _, err := MeasureMeetings(w, nil, 10); err == nil {
		t.Error("want nil-partition error")
	}
	if _, err := MeasureMeetings(w, part, -1); err == nil {
		t.Error("want budget error")
	}
}

func TestMeasureMeetings(t *testing.T) {
	p := sim.Params{N: 2000, L: 44.7, R: 4, V: 0.4, Seed: 6}
	part, err := cells.NewPartition(p.L, p.R, p.N)
	if err != nil {
		t.Fatal(err)
	}
	if part.SuburbCount() == 0 {
		t.Skip("no suburb at this parameterization")
	}
	w := newWorld(t, p)
	rep, err := MeasureMeetings(w, part, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SuburbAgents == 0 {
		t.Skip("no agents started in the suburb")
	}
	if rep.Met < rep.SuburbAgents {
		t.Errorf("only %d/%d suburb agents met a CZ agent", rep.Met, rep.SuburbAgents)
	}
	if rep.MaxTime < 0 || rep.MeanTime < 0 {
		t.Errorf("times: max=%d mean=%v", rep.MaxTime, rep.MeanTime)
	}
	// The paper's budget must comfortably cover the measured worst case.
	budget := Lemma16Budget(part, p.V)
	if float64(rep.MaxTime) > budget {
		t.Errorf("max meeting time %d exceeds Lemma 16 budget %v", rep.MaxTime, budget)
	}
}

func TestLemma16Budget(t *testing.T) {
	part, err := cells.NewPartition(100, 5, 10000)
	if err != nil {
		t.Fatal(err)
	}
	b := Lemma16Budget(part, 0.5)
	if want := 590 * part.SuburbDiameterS() / 0.5; b != want {
		t.Errorf("budget = %v, want %v", b, want)
	}
	if got := Lemma16Budget(part, 0); !isInf(got) {
		t.Errorf("zero speed budget = %v, want +Inf", got)
	}
}

func isInf(v float64) bool { return v > 1e300 }
