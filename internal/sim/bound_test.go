package sim

import (
	"math"
	"reflect"
	"testing"

	"manhattanflood/internal/spatialindex"
)

// Bound indexes must stay bit-identical to a fresh rebuild at their own
// radius after every Step and every Reset, on both sync paths (the radii
// put V/R above, at and below the delta threshold), for a model that
// never rests and one that pauses, stepped sequentially and in parallel;
// a released index must come back rebuilt after the next Reset. Binding
// must not perturb the world itself: positions and the own index equal
// those of a twin world with nothing bound.
func TestBoundIndexesMatchFreshRebuild(t *testing.T) {
	radii := []float64{3, 6, 12} // V/R = 0.1, 0.05, 0.025 at V = 0.3
	for _, tc := range []struct {
		name    string
		factory ModelFactory
		workers int
	}{
		{"mrwp_seq", nil, 0},
		{"mrwp_parallel", nil, 4},
		{"paused_seq", PausedMRWPFactory(6), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{N: 600, L: 25, R: 1.5, V: 0.3, Seed: 0xb0d, Workers: tc.workers}
			w, err := NewWorld(p, tc.factory)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewWorld(p, tc.factory)
			if err != nil {
				t.Fatal(err)
			}
			bound := make([]*spatialindex.Index, len(radii))
			refs := make([]*spatialindex.Index, len(radii))
			for k, r := range radii {
				if bound[k], err = w.BindIndex(r); err != nil {
					t.Fatal(err)
				}
				if refs[k], err = spatialindex.New(p.L, r); err != nil {
					t.Fatal(err)
				}
			}
			ownRef, err := spatialindex.New(p.L, p.R)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step int, released int) {
				t.Helper()
				for k := range bound {
					if k != released {
						requireMatchesFreshRebuild(t, step, w, bound[k], refs[k])
					}
				}
				requireIndexMatchesFreshRebuild(t, step, w, ownRef)
				for i := range w.X() {
					if w.X()[i] != twin.X()[i] || w.Y()[i] != twin.Y()[i] {
						t.Fatalf("step %d: agent %d moved differently with indexes bound", step, i)
					}
				}
			}
			check(-1, -1)
			for step := 0; step < 30; step++ {
				w.Step()
				twin.Step()
				check(step, -1)
			}
			// Release the middle index: the others keep in sync without
			// it, and the next Reset rebuilds and re-arms it.
			w.ReleaseIndex(bound[1])
			for step := 0; step < 5; step++ {
				w.Step()
				twin.Step()
				check(100+step, 1)
			}
			w.Reset(0xb0e)
			twin.Reset(0xb0e)
			check(-2, -1)
			for step := 0; step < 10; step++ {
				w.Step()
				twin.Step()
				check(200+step, -1)
			}
		})
	}
}

// A tiled world binds nothing: the tiled index path is the own index's.
func TestBindIndexRefusesTiledWorld(t *testing.T) {
	w, err := NewWorld(Params{N: 400, L: 20, R: 2, V: 0.3, Seed: 1, Tiles: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.BindIndex(4); err == nil {
		t.Fatal("BindIndex on a tiled world: want an error")
	}
	flat, err := NewWorld(Params{N: 400, L: 20, R: 2, V: 0.3, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.BindIndex(0); err == nil {
		t.Fatal("BindIndex at radius 0: want an error")
	}
}

// SetRadius keeps the trajectory and moves only the index: after it the
// world steps exactly as before, its index equals a fresh one at the new
// radius, and a Reset lands on a world bit-identical to NewWorld at that
// radius.
func TestSetRadiusKeepsTrajectory(t *testing.T) {
	p := Params{N: 500, L: 22, R: 2, V: 0.3, Seed: 5}
	w, err := NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 7; step++ {
		w.Step()
		twin.Step()
	}
	if err := w.SetRadius(8); err != nil { // V/R 0.15 -> 0.0375: rebuild -> delta
		t.Fatal(err)
	}
	if got := w.Params().R; got != 8 {
		t.Fatalf("Params().R = %v after SetRadius(8)", got)
	}
	ref, err := spatialindex.New(p.L, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireIndexMatchesFreshRebuild(t, -1, w, ref)
	for step := 0; step < 10; step++ {
		w.Step()
		twin.Step()
		requireIndexMatchesFreshRebuild(t, step, w, ref)
		for i := range w.X() {
			if w.X()[i] != twin.X()[i] || w.Y()[i] != twin.Y()[i] {
				t.Fatalf("step %d: agent %d left the trajectory after SetRadius", step, i)
			}
		}
	}
	fresh, err := NewWorld(Params{N: 500, L: 22, R: 8, V: 0.3, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Reset(9)
	for step := 0; step < 10; step++ {
		w.Step()
		fresh.Step()
	}
	requireIndexMatchesFreshRebuild(t, 100, w, ref)
	for i := range w.X() {
		if w.X()[i] != fresh.X()[i] || w.Y()[i] != fresh.Y()[i] {
			t.Fatalf("agent %d: SetRadius + Reset differs from NewWorld at the new radius", i)
		}
	}
	if err := w.SetRadius(-1); err == nil {
		t.Fatal("SetRadius(-1): want an error")
	}
}

// TestBoundIndexBytes reports what one radius lane adds to a world: the
// slice storage of each bound index at the sweep_mc_2k geometry (world at
// R = 2, lanes at 4, 8 and 16), counted after enough steps for the delta
// scratch to reach its working size. Run with -v for the table in
// ARCHITECTURE.md; the bound holds a lane index under 64 B per agent plus
// 48 B per bucket.
func TestBoundIndexBytes(t *testing.T) {
	const n = 2000
	l := math.Sqrt(n)
	w, err := NewWorld(Params{N: n, L: l, R: 2, V: 0.3, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	radii := []float64{4, 8, 16}
	bound := make([]*spatialindex.Index, len(radii))
	for k, r := range radii {
		if bound[k], err = w.BindIndex(r); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 40; step++ {
		w.Step()
	}
	c := &byteCounter{seen: map[uintptr]bool{}}
	wv := reflect.ValueOf(w).Elem()
	for _, f := range []string{"x", "y"} {
		c.walk(wv.FieldByName(f)) // a delta-synced index borrows them
	}
	for k, ix := range bound {
		b := c.walk(reflect.ValueOf(ix))
		buckets := ix.NumCells()
		t.Logf("lane index at R=%v: %d B = %.1f B/agent (%d buckets)", radii[k], b, float64(b)/n, buckets)
		if limit := 64*n + 48*buckets; b > limit {
			t.Errorf("lane index at R=%v holds %d B, over %d", radii[k], b, limit)
		}
	}
}
