package core

import (
	"testing"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/sim"
)

func newWorld(t *testing.T, p sim.Params) *sim.World {
	t.Helper()
	w, err := sim.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runFlood runs f under Run with no context or callback and returns its
// result.
func runFlood(t *testing.T, f *Flooding, maxSteps int) Result {
	t.Helper()
	runDone(t, f, maxSteps)
	return f.Result()
}

// runDone runs p under Run with no context or callback and reports
// whether it completed within the budget.
func runDone(t *testing.T, p Process, maxSteps int) bool {
	t.Helper()
	if err := Run(nil, p, maxSteps, nil); err != nil {
		t.Fatal(err)
	}
	return p.Done()
}

func TestNewFloodingErrors(t *testing.T) {
	w := newWorld(t, sim.Params{N: 10, L: 10, R: 1, V: 0.1, Seed: 1})
	if _, err := NewFlooding(nil, 0); err == nil {
		t.Error("want nil-world error")
	}
	if _, err := NewFlooding(w, -1); err == nil {
		t.Error("want range error")
	}
	if _, err := NewFlooding(w, 10); err == nil {
		t.Error("want range error")
	}
}

func TestFloodingInitialState(t *testing.T) {
	w := newWorld(t, sim.Params{N: 10, L: 10, R: 1, V: 0.1, Seed: 1})
	f, err := NewFlooding(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.InformedCount() != 1 || !f.Informed()[3] || f.Informed()[0] {
		t.Error("initial informed state wrong")
	}
	if f.Source() != 3 {
		t.Errorf("Source = %d", f.Source())
	}
	if f.Done() {
		t.Error("cannot be done with 10 agents")
	}
}

func TestFloodingMonotoneAndCompletes(t *testing.T) {
	// Dense, fast network: flooding must finish quickly, and the informed
	// set must only grow.
	w := newWorld(t, sim.Params{N: 300, L: 10, R: 2, V: 0.3, Seed: 2})
	f, err := NewFlooding(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	series := []int{f.InformedCount()}
	for s := 0; s < 200 && !f.Done(); s++ {
		newly := f.Step()
		if newly < 0 {
			t.Fatal("negative newly informed")
		}
		if got, want := f.InformedCount(), series[len(series)-1]+newly; got != want {
			t.Fatalf("informed count %d after a step that informed %d, want %d", got, newly, want)
		}
		series = append(series, f.InformedCount())
	}
	if !f.Done() {
		t.Fatalf("flooding did not complete: %d/%d", f.InformedCount(), w.N())
	}
	if series[0] != 1 {
		t.Errorf("series start = %v", series[:min(3, len(series))])
	}
	if series[len(series)-1] != 300 {
		t.Errorf("final series value = %d", series[len(series)-1])
	}
}

func TestFloodingRunResult(t *testing.T) {
	w := newWorld(t, sim.Params{N: 200, L: 10, R: 2, V: 0.3, Seed: 3})
	f, _ := NewFlooding(w, 0)
	res := runFlood(t, f, 500)
	if !res.Completed {
		t.Fatalf("run did not complete: %+v", res)
	}
	if res.Informed != 200 || res.N != 200 {
		t.Errorf("counts wrong: %+v", res)
	}
	if res.Time <= 0 || res.Time > 500 {
		t.Errorf("Time = %d", res.Time)
	}
	if err := Run(nil, f, -1, nil); err == nil {
		t.Error("want negative-budget error")
	}
}

func TestFloodingBudgetExhaustion(t *testing.T) {
	// Tiny radius, slow agents, few steps: must report not completed.
	w := newWorld(t, sim.Params{N: 100, L: 100, R: 0.5, V: 0.01, Seed: 4})
	f, _ := NewFlooding(w, 0)
	res := runFlood(t, f, 3)
	if res.Completed {
		t.Error("cannot complete in 3 steps at these parameters")
	}
	if res.Time != 3 {
		t.Errorf("Time = %d, want 3 (the budget)", res.Time)
	}
	if res.SuburbLag != -1 {
		t.Error("SuburbLag must be -1 when incomplete")
	}
}

func TestFloodingOneHopPerStep(t *testing.T) {
	// A static-like chain: with V tiny, agents barely move, so information
	// crosses one R-hop per step. Construct a world where the source's
	// component spans several hops and verify informed counts grow
	// gradually, not all at once.
	w := newWorld(t, sim.Params{N: 400, L: 10, R: 1.2, V: 0.001, Seed: 5})
	f, _ := NewFlooding(w, 0)
	f.Step()
	afterOne := f.InformedCount()
	if afterOne == w.N() {
		t.Skip("degenerate draw: everything within one hop")
	}
	// With chaining the same world floods (weakly) faster at every step.
	w2 := newWorld(t, sim.Params{N: 400, L: 10, R: 1.2, V: 0.001, Seed: 5})
	fc, _ := NewFlooding(w2, 0, WithinStepChaining(true))
	fc.Step()
	if fc.InformedCount() < afterOne {
		t.Errorf("chaining informed %d < plain %d", fc.InformedCount(), afterOne)
	}
}

func TestFloodingChainingFloodsComponentInstantly(t *testing.T) {
	// With chaining and near-zero speed, one step must inform the entire
	// connected component of the source in the very first round.
	p := sim.Params{N: 300, L: 10, R: 1.5, V: 1e-9, Seed: 6}
	w := newWorld(t, p)
	f, _ := NewFlooding(w, 0, WithinStepChaining(true))
	f.Step()
	g, err := w.SnapshotGraph()
	if err != nil {
		t.Fatal(err)
	}
	comp := g.Components()
	// Every agent in the source's component must now be informed.
	for i := 0; i < w.N(); i++ {
		if comp.Connected(0, i) && !f.Informed()[i] {
			t.Fatalf("agent %d in source component but uninformed", i)
		}
	}
}

func TestFloodingWithPartitionTracksCZ(t *testing.T) {
	p := sim.Params{N: 2000, L: 44.7, R: 4, V: 0.4, Seed: 7}
	part, err := cells.NewPartition(p.L, p.R, p.N)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t, p)
	central, _ := SourcePair(w)
	f, err := NewFlooding(w, central, WithPartition(part))
	if err != nil {
		t.Fatal(err)
	}
	res := runFlood(t, f, 2000)
	if !res.Completed {
		t.Fatalf("flooding incomplete: %+v", res)
	}
	if res.CZTime < 0 {
		t.Error("CZTime not recorded despite partition")
	}
	if res.CZTime > res.Time {
		t.Errorf("CZTime %d > total time %d", res.CZTime, res.Time)
	}
	if res.SuburbLag != res.Time-res.CZTime {
		t.Errorf("SuburbLag = %d, want %d", res.SuburbLag, res.Time-res.CZTime)
	}
}

func TestSourcePair(t *testing.T) {
	w := newWorld(t, sim.Params{N: 500, L: 20, R: 2, V: 0.2, Seed: 8})
	central, suburb := SourcePair(w)
	c := w.Position(central)
	s := w.Position(suburb)
	if c.Dist(geom.Pt(10, 10)) > s.Dist(geom.Pt(10, 10)) {
		t.Error("central source farther from center than suburb source")
	}
	if s.Dist(geom.Pt(0, 0)) > c.Dist(geom.Pt(0, 0)) {
		t.Error("suburb source farther from origin than central source")
	}
}

func TestMeetingRadius(t *testing.T) {
	if MeetingRadius(4) != 3 {
		t.Errorf("MeetingRadius(4) = %v", MeetingRadius(4))
	}
}

func TestFloodingSingleAgent(t *testing.T) {
	w := newWorld(t, sim.Params{N: 1, L: 10, R: 1, V: 0.1, Seed: 9})
	f, err := NewFlooding(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Done() {
		t.Error("single-agent flooding is done at t=0")
	}
	res := runFlood(t, f, 10)
	if !res.Completed || res.Time != 0 {
		t.Errorf("result = %+v", res)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
