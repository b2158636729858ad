package sim

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"manhattanflood/internal/mobility"
)

// restingWrapper hides a model's NeverRests guarantee, forcing the world
// onto the dirty-bitmap bookkeeping path it would otherwise skip. It
// forwards everything else, NewPopulation included, so the wrapped world
// steps the same population form.
type restingWrapper struct{ mobility.Model }

func (restingWrapper) NeverRests() bool { return false }

func restingFactory(inner ModelFactory) ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		m, err := inner(cfg)
		if err != nil {
			return nil, err
		}
		return restingWrapper{m}, nil
	}
}

// The NeverRests fast path (fused advance→classify, no dirty bitmap: no
// clear, no per-agent bit store, index path picked on V/R alone) must be
// bit-identical to the population+bitmap path — same trajectories, same
// index state — since for a pause-free model every dirty bit would be set
// anyway. The wrapper world steps the exact same population but reports
// NeverRests false, so the two worlds differ only in the bookkeeping under
// test. Covered across the delta-update regime (V/R <= 0.05), the rebuild
// regime, parallel stepping, and mid-run Reset.
func TestNeverRestsBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		factory ModelFactory
		v       float64
		workers int
	}{
		{"mrwp-delta", nil, 0.1, 0},           // V/R = 0.04: delta-update path
		{"mrwp-rebuild", nil, 0.8, 0},         // V/R = 0.32: counting-sort path
		{"mrwp-parallel", nil, 0.1, 4},        // delta path, 4 workers
		{"walk", RandomWalkFactory(), 0.3, 0}, // a second pause-free model
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{N: 500, L: 30, R: 2.5, V: tc.v, Seed: 21, Workers: tc.workers}
			factory := tc.factory
			if factory == nil {
				factory = MRWPFactory()
			}
			fast, err := NewWorld(p, factory)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := NewWorld(p, restingFactory(factory))
			if err != nil {
				t.Fatal(err)
			}
			if !fast.neverRests || fast.dirty != nil {
				t.Fatal("precondition: plain world must take the no-bitmap fast path")
			}
			if slow.neverRests || slow.dirty == nil {
				t.Fatal("precondition: wrapped world must keep the dirty bitmap")
			}
			if reflect.TypeOf(slow.pop) != reflect.TypeOf(fast.pop) {
				t.Fatalf("precondition: wrapped world steps %T, plain world %T", slow.pop, fast.pop)
			}
			check := func(step int) {
				t.Helper()
				for i := range fast.x {
					if fast.x[i] != slow.x[i] || fast.y[i] != slow.y[i] {
						t.Fatalf("step %d: agent %d position diverges: (%v,%v) vs (%v,%v)",
							step, i, fast.x[i], fast.y[i], slow.x[i], slow.y[i])
					}
				}
				fi, si := fast.Index(), slow.Index()
				fids, fxs, fys := fi.CSR()
				sids, sxs, sys := si.CSR()
				for k := range fids {
					if fids[k] != sids[k] || fxs[k] != sxs[k] || fys[k] != sys[k] {
						t.Fatalf("step %d: index CSR diverges at position %d", step, k)
					}
				}
				for c := 0; c < fi.NumCells(); c++ {
					flo, fhi := fi.CellSpanBounds(c)
					slo, shi := si.CellSpanBounds(c)
					if flo != slo || fhi != shi {
						t.Fatalf("step %d: bucket %d spans diverge", step, c)
					}
				}
			}
			for s := 1; s <= 40; s++ {
				fast.Step()
				slow.Step()
				check(s)
			}
			// Pooled reuse must preserve the equivalence.
			fast.Reset(99)
			slow.Reset(99)
			check(-1)
			for s := 1; s <= 20; s++ {
				fast.Step()
				slow.Step()
				check(s)
			}
		})
	}
}

// A model hidden behind restingWrapper must still produce working agents
// (the wrapper forwards everything but NeverRests); sanity-check the
// wrapper itself so the equivalence test above cannot silently compare a
// broken world against another broken world.
func TestRestingWrapperForwards(t *testing.T) {
	m, err := mobility.NewMRWP(mobility.Config{L: 10, V: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	w := restingWrapper{m}
	if w.NeverRests() {
		t.Fatal("wrapper must report NeverRests false")
	}
	if w.Name() != m.Name() {
		t.Fatal("wrapper must forward Name")
	}
	a := w.NewAgent(rand.New(rand.NewPCG(1, 2)))
	p0 := a.Pos()
	a.Step()
	if a.Pos() == p0 {
		t.Fatal("wrapped agent did not move")
	}
}
