package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/kernel"
	"manhattanflood/internal/mobility"
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

// refTree is the rescan TreeFlooding ran before its rounds became
// Flooding rounds, kept as the oracle for its parents and times. Every
// round it visits every uninformed agent and streams the agent's 3x3
// block through the batched kernel, with an informed-by-CSR-position
// bitmap as the filter; the closest informed hit becomes the parent,
// ties by lowest id.
type refTree struct {
	w        *sim.World
	informed []bool
	count    int
	parent   []int32
	when     []int32
	hits     []treeHit // scratch: this step's (child, parent) pairs
	infBits  []uint64  // scratch: informed-by-CSR-position bitmap (kernel filter)
	ties     int       // hits at exactly the best distance so far
}

// treeHit is one newly informed agent and its chosen parent.
type treeHit struct {
	child, parent int32
}

func newRefTree(w *sim.World, source int) *refTree {
	f := &refTree{
		w:        w,
		informed: make([]bool, w.N()),
		count:    1,
		parent:   make([]int32, w.N()),
		when:     make([]int32, w.N()),
	}
	for i := range f.parent {
		f.parent[i] = -1
		f.when[i] = -1
	}
	f.informed[source] = true
	f.when[source] = 0
	return f
}

func (f *refTree) step() int {
	f.w.Step()
	ix := f.w.Index()
	r2 := ix.Radius() * ix.Radius()
	now := int32(f.w.Time())
	xs, ys := ix.XS(), ix.YS()
	ids, cxs, cys := ix.CSR()
	nw := kernel.Words(len(ids))
	if cap(f.infBits) < nw {
		f.infBits = make([]uint64, nw)
	}
	infBits := f.infBits[:nw]
	clear(infBits)
	for k, id := range ids {
		if f.informed[id] {
			infBits[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	newly := f.hits[:0]
	for i := range f.informed {
		if f.informed[i] {
			continue
		}
		px, py := xs[i], ys[i]
		best, bestD := int32(-1), math.Inf(1)
		x0, x1, y0, y1 := ix.BlockBoundsXY(px, py)
		for by := y0; by <= y1; by++ {
			lo, hi := ix.RowSpanBounds(by, x0, x1)
			if lo >= hi {
				continue
			}
			kernel.VisitHits(cxs[lo:hi], cys[lo:hi], px, py, r2, infBits, int(lo), func(k int) bool {
				j := ids[k]
				dx := cxs[k] - px
				dy := cys[k] - py
				d := dx*dx + dy*dy
				if d == bestD {
					f.ties++
				}
				if d < bestD || (d == bestD && j < best) {
					best, bestD = j, d
				}
				return true
			})
		}
		if best >= 0 {
			newly = append(newly, treeHit{child: int32(i), parent: best})
		}
	}
	for _, h := range newly {
		f.informed[h.child] = true
		f.parent[h.child] = h.parent
		f.when[h.child] = now
	}
	f.hits = newly
	f.count += len(newly)
	return len(newly)
}

// TreeFlooding's parents and times are bit-identical to the rescan
// oracle's after every step, on every protocol shape.
func TestTreeFloodingMatchesRescanOracle(t *testing.T) {
	for _, s := range protocolShapes(500) {
		t.Run(s.name, func(t *testing.T) {
			w1, w2 := s.world(t), s.world(t)
			src := s.source(w1)
			tree, err := NewTreeFlooding(w1, src)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefTree(w2, src)
			for step := 1; step <= relationSteps && !tree.Done(); step++ {
				got, want := tree.Step(), ref.step()
				if got != want || tree.InformedCount() != ref.count {
					t.Fatalf("step %d: %d newly informed (%d in all), oracle %d (%d)",
						step, got, tree.InformedCount(), want, ref.count)
				}
				for i := range ref.parent {
					if tree.parent[i] != ref.parent[i] || tree.when[i] != ref.when[i] {
						t.Fatalf("step %d: agent %d parent %d at %d, oracle parent %d at %d",
							step, i, tree.parent[i], tree.when[i], ref.parent[i], ref.when[i])
					}
				}
			}
			if !tree.Done() {
				t.Fatalf("tree flooding incomplete after %d steps", relationSteps)
			}
		})
	}
}

// latticeModel snaps every position its population publishes to the
// half-unit lattice, so agents sit at exactly equal distances from one
// another and the parent tie-break decides real cases.
type latticeModel struct{ mobility.Model }

func (m latticeModel) NewPopulation(n int) mobility.Population {
	return &latticePop{Population: m.Model.NewPopulation(n)}
}

type latticePop struct {
	mobility.Population
	v mobility.View
}

func (p *latticePop) Bind(v mobility.View) {
	p.v = v
	p.Population.Bind(v)
}

func (p *latticePop) InitAgent(i int, rng rand.Source) {
	p.Population.InitAgent(i, rng)
	p.snap(i, i+1)
}

func (p *latticePop) StepRange(lo, hi int) {
	p.Population.StepRange(lo, hi)
	p.snap(lo, hi)
}

func (p *latticePop) snap(lo, hi int) {
	for i := lo; i < hi; i++ {
		p.v.X[i] = math.Round(2*p.v.X[i]) / 2
		p.v.Y[i] = math.Round(2*p.v.Y[i]) / 2
	}
}

// On a lattice, where candidate parents tie, TreeFlooding's parents still
// match the oracle's: among the closest, the lowest id.
func TestTreeFloodingTiesMatchOracle(t *testing.T) {
	lattice := func(cfg mobility.Config) (mobility.Model, error) {
		m, err := sim.MRWPFactory()(cfg)
		return latticeModel{m}, err
	}
	for _, tiles := range []int{0, 4} {
		p := sim.Params{N: 500, L: 30, R: 2, V: 0.3, Seed: 8, Tiles: tiles}
		w1, err := sim.NewWorld(p, lattice)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := sim.NewWorld(p, lattice)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := SourcePair(w1)
		tree, err := NewTreeFlooding(w1, src)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTree(w2, src)
		for step := 1; step <= relationSteps && !tree.Done(); step++ {
			tree.Step()
			ref.step()
			for i := range ref.parent {
				if tree.parent[i] != ref.parent[i] || tree.when[i] != ref.when[i] {
					t.Fatalf("tiles=%d step %d: agent %d parent %d at %d, oracle parent %d at %d",
						tiles, step, i, tree.parent[i], tree.when[i], ref.parent[i], ref.when[i])
				}
			}
		}
		if ref.ties == 0 {
			t.Fatalf("tiles=%d: no parent tie arose, so the tie-break went untested", tiles)
		}
	}
}
