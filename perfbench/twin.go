package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"manhattanflood/internal/mobility"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/spatialindex"
)

// Per-agent RNG stream stride and the delta/rebuild switch point of
// sim.World; the twin must make exactly the calls World makes, so it
// mirrors both. A drift shows up as a guard failure, not as a silently
// different split.
const (
	twinSeedStride    = 0x9e3779b97f4a7c15
	twinMaxMoverFrac  = 0.05
	twinFuseChunk     = 1024
	twinDirtySampling = 16
)

// twin is a second mobility.Population + spatialindex.Index driven through
// the calls sim.World.Step and Reset make, one timed span per call, so the
// traced run can split a world step into advance, classify and index sync
// without instrumenting the program. After every step guard checks that
// the twin's positions and CSR are bit-identical to the world's: if they
// are not, the split would be measuring a different program.
type twin struct {
	p          sim.Params
	pop        mobility.Population
	ix         *spatialindex.Index
	x, y       []float64
	dirty      []bool
	cells      []int32
	prevCell   []int32
	pcgs       []*rand.PCG
	rngs       []*rand.Rand
	neverRests bool

	movers, moverSteps int64 // Σ agents whose bucket changed, and steps counted
}

// newTwin builds the twin for a world with parameters p and model m.
func newTwin(p sim.Params, m mobility.Model) (*twin, error) {
	bs, ok := m.(mobility.BulkStepper)
	if !ok {
		return nil, fmt.Errorf("twin: model %s has no population form", m.Name())
	}
	ix, err := spatialindex.New(p.L, p.R)
	if err != nil {
		return nil, err
	}
	if p.Tiles > 0 {
		workers := max(p.Workers, 1)
		if _, err := ix.EnableTiling(p.Tiles, workers); err != nil {
			return nil, err
		}
	}
	t := &twin{
		p: p, ix: ix,
		pop:        bs.NewPopulation(p.N),
		x:          make([]float64, p.N),
		y:          make([]float64, p.N),
		cells:      make([]int32, p.N),
		prevCell:   make([]int32, p.N),
		pcgs:       make([]*rand.PCG, p.N),
		rngs:       make([]*rand.Rand, p.N),
		neverRests: m.NeverRests(),
	}
	if !t.neverRests {
		t.dirty = make([]bool, p.N)
	}
	t.pop.Bind(mobility.View{X: t.x, Y: t.y, Dirty: t.dirty})
	for i := range t.pcgs {
		t.pcgs[i] = rand.NewPCG(0, 0)
		t.rngs[i] = rand.New(t.pcgs[i])
	}
	return t, nil
}

// reset re-draws every agent from seed and rebuilds the index, as
// sim.NewWorld and World.Reset do.
func (t *twin) reset(tr *tracer, seed uint64) {
	id := tr.begin("mobility.init")
	for i := range t.rngs {
		t.pcgs[i].Seed(seed, uint64(i)+twinSeedStride)
		t.pop.InitAgent(i, t.rngs[i])
	}
	tr.end(id)
	id = tr.begin("spatialindex.rebuild")
	t.ix.RebuildXY(t.x, t.y)
	tr.end(id)
	t.snapshotCells()
}

// step advances the twin one world step: the advance and classify passes
// chunk by chunk (one span per pass, summed over chunks), then the index
// sync World.syncIndex would choose.
func (t *twin) step(tr *tracer) {
	n := len(t.x)
	if t.dirty != nil {
		clear(t.dirty)
	}
	var adv, cls int64
	for lo := 0; lo < n; lo += twinFuseChunk {
		hi := min(lo+twinFuseChunk, n)
		a := tr.now()
		t.pop.StepRange(lo, hi)
		b := tr.now()
		adv += b - a
		if t.neverRests {
			t.ix.ClassifyInto(t.cells[lo:hi], t.x[lo:hi], t.y[lo:hi])
			cls += tr.now() - b
		}
	}
	now := tr.now()
	tr.add("mobility.advance", now-adv-cls, now-cls)
	if t.neverRests {
		tr.add("spatialindex.classify", now-cls, now)
	}
	id := tr.begin("spatialindex.sync")
	t.sync()
	tr.end(id)
}

// sync mirrors World.syncIndex (fault injection off).
func (t *twin) sync() {
	vOverR := t.p.V / t.p.R
	if t.neverRests {
		if vOverR <= twinMaxMoverFrac {
			t.ix.UpdateCells(t.x, t.y, t.cells, nil)
		} else {
			t.ix.RebuildXYCells(t.x, t.y, t.cells)
		}
		return
	}
	if vOverR <= twinMaxMoverFrac {
		t.ix.Update(t.x, t.y, t.dirty)
		return
	}
	moving, sampled := 0, 0
	for i := 0; i < len(t.dirty); i += twinDirtySampling {
		sampled++
		if t.dirty[i] {
			moving++
		}
	}
	if float64(moving)*vOverR <= twinMaxMoverFrac*float64(sampled) {
		t.ix.Update(t.x, t.y, t.dirty)
	} else {
		t.ix.RebuildXY(t.x, t.y)
	}
}

// snapshotCells remembers every agent's bucket for the mover count.
func (t *twin) snapshotCells() {
	for i := range t.prevCell {
		t.prevCell[i] = int32(t.ix.Cell(i))
	}
}

// guard compares the twin against w bit for bit (positions and CSR) and,
// after a step, counts the agents whose bucket changed during it.
func (t *twin) guard(w *sim.World, stepped bool) error {
	if err := sameBits("X", t.x, w.X()); err != nil {
		return err
	}
	if err := sameBits("Y", t.y, w.Y()); err != nil {
		return err
	}
	ti, tx, ty := t.ix.CSR()
	wi, wx, wy := w.Index().CSR()
	if len(ti) != len(wi) {
		return fmt.Errorf("twin guard: CSR length %d, world %d", len(ti), len(wi))
	}
	for k := range ti {
		if ti[k] != wi[k] {
			return fmt.Errorf("twin guard: CSR id %d differs at step %d", k, w.Time())
		}
	}
	if err := sameBits("CSR x", tx, wx); err != nil {
		return err
	}
	if err := sameBits("CSR y", ty, wy); err != nil {
		return err
	}
	if !stepped {
		return nil
	}
	moved := 0
	for i := range t.prevCell {
		c := int32(t.ix.Cell(i))
		if c != t.prevCell[i] {
			moved++
			t.prevCell[i] = c
		}
	}
	t.movers += int64(moved)
	t.moverSteps++
	return nil
}

func sameBits(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("twin guard: %s length %d, world %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("twin guard: %s[%d] differs", what, i)
		}
	}
	return nil
}

// mobilityConfig is the model configuration sim.NewWorld derives from p.
func mobilityConfig(p sim.Params) mobility.Config { return mobility.Config{L: p.L, V: p.V} }
