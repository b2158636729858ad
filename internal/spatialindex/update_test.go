package spatialindex

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/geom"
)

// requireIdentical fails unless a and b hold bit-identical index state:
// starts, bucket-major ids, CSR coordinate streams, id-indexed coordinate
// copies, and the id -> bucket map.
func requireIdentical(t *testing.T, step int, got, want *Index) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("step %d: Len %d != %d", step, got.Len(), want.Len())
	}
	gids, gx, gy := got.CSR()
	wids, wx, wy := want.CSR()
	for k := range wids {
		if gids[k] != wids[k] {
			t.Fatalf("step %d: ids[%d] = %d, want %d", step, k, gids[k], wids[k])
		}
		if gx[k] != wx[k] || gy[k] != wy[k] {
			t.Fatalf("step %d: CSR coords[%d] = (%v, %v), want (%v, %v)",
				step, k, gx[k], gy[k], wx[k], wy[k])
		}
	}
	for c := 0; c <= want.NumCells(); c++ {
		if got.starts[c] != want.starts[c] {
			t.Fatalf("step %d: starts[%d] = %d, want %d", step, c, got.starts[c], want.starts[c])
		}
	}
	gxs, gys := got.XS(), got.YS()
	wxs, wys := want.XS(), want.YS()
	for i := range wxs {
		if gxs[i] != wxs[i] || gys[i] != wys[i] {
			t.Fatalf("step %d: XS/YS[%d] = (%v, %v), want (%v, %v)",
				step, i, gxs[i], gys[i], wxs[i], wys[i])
		}
		if got.Cell(i) != want.Cell(i) {
			t.Fatalf("step %d: Cell(%d) = %d, want %d", step, i, got.Cell(i), want.Cell(i))
		}
	}
}

// perturb displaces each point by at most maxStep per coordinate, clamped
// to the square — a synthetic mobility step.
func perturb(rng *rand.Rand, xs, ys []float64, side, maxStep float64) {
	for i := range xs {
		xs[i] += (rng.Float64()*2 - 1) * maxStep
		ys[i] += (rng.Float64()*2 - 1) * maxStep
		xs[i] = clamp01(xs[i], side)
		ys[i] = clamp01(ys[i], side)
	}
}

func clamp01(v, side float64) float64 {
	if v < 0 {
		return 0
	}
	if v > side {
		return side
	}
	return v
}

// The delta update must leave the index bit-identical to a fresh
// counting-sort rebuild of the same coordinates, across many randomized
// mobility-like steps and displacement scales (including ones large enough
// to trip the fallback).
func TestUpdateMatchesRebuild(t *testing.T) {
	for _, maxStep := range []float64{0.05, 0.4, 1.7, 6.0, 40.0} {
		rng := rand.New(rand.NewPCG(42, uint64(maxStep*1000)))
		const side, radius = 50.0, 4.0
		const n = 700
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * side
			ys[i] = rng.Float64() * side
		}
		upd, err := New(side, radius)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(side, radius)
		if err != nil {
			t.Fatal(err)
		}
		upd.RebuildXY(xs, ys)
		for step := 0; step < 60; step++ {
			perturb(rng, xs, ys, side, maxStep)
			upd.Update(xs, ys, nil)
			ref.RebuildXY(xs, ys)
			requireIdentical(t, step, upd, ref)
		}
	}
}

// Update with dirty flags must skip clean points (whose coordinates are
// unchanged by contract) and still match the full rebuild.
func TestUpdateDirtyFlags(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 99))
	const side, radius = 30.0, 3.0
	const n = 400
	xs := make([]float64, n)
	ys := make([]float64, n)
	dirty := make([]bool, n)
	for i := range xs {
		xs[i] = rng.Float64() * side
		ys[i] = rng.Float64() * side
	}
	upd, err := New(side, radius)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(side, radius)
	if err != nil {
		t.Fatal(err)
	}
	upd.RebuildXY(xs, ys)
	for step := 0; step < 50; step++ {
		// A random subset rests (coordinates untouched, flag false), the
		// rest moves and is flagged.
		for i := range dirty {
			dirty[i] = rng.Float64() < 0.7
			if dirty[i] {
				xs[i] = clamp01(xs[i]+(rng.Float64()*2-1)*1.2, side)
				ys[i] = clamp01(ys[i]+(rng.Float64()*2-1)*1.2, side)
			}
		}
		upd.Update(xs, ys, dirty)
		ref.RebuildXY(xs, ys)
		requireIdentical(t, step, upd, ref)
	}
}

// A population-size change through Update must degrade to a full rebuild
// instead of corrupting state.
func TestUpdateResize(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 5))
	const side, radius = 20.0, 2.0
	upd, err := New(side, radius)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(side, radius)
	if err != nil {
		t.Fatal(err)
	}
	for step, n := range []int{100, 250, 60, 0, 130} {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * side
			ys[i] = rng.Float64() * side
		}
		upd.Update(xs, ys, nil)
		ref.RebuildXY(xs, ys)
		requireIdentical(t, step, upd, ref)
	}
}

// Update retains the caller's coordinate slices as the id-indexed view
// (that is its contract — no re-materialization), while RebuildXY keeps
// copying into owned buffers; the two modes must interleave cleanly.
func TestUpdateRetainsRebuildCopies(t *testing.T) {
	const side, radius = 10.0, 2.0
	ix, err := New(side, radius)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{1, 1.5, 9}
	ys := []float64{1, 1, 9}
	ix.RebuildXY(xs, ys)
	if &ix.XS()[0] == &xs[0] {
		t.Fatal("RebuildXY retained the caller's slice; it must copy")
	}
	xs[0], ys[0] = 1.2, 1.1 // small in-bucket move
	ix.Update(xs, ys, nil)
	if &ix.XS()[0] != &xs[0] {
		t.Fatal("Update copied the caller's slice; it must retain it")
	}
	if got := ix.Neighbors(geom.Pt(ix.XS()[0], ix.YS()[0]), 0, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("neighbors of point 0 after update = %v, want [1]", got)
	}
	// Back to the copying path: the owned buffers must not have been
	// poisoned by the retained episode.
	ix.RebuildXY(xs, ys)
	if &ix.XS()[0] == &xs[0] {
		t.Fatal("RebuildXY after Update retained the caller's slice")
	}
	for i := range xs {
		xs[i], ys[i] = 5, 5 // scribble: the rebuild snapshot must survive
	}
	if got := ix.Neighbors(geom.Pt(ix.XS()[2], ix.YS()[2]), -1, nil); len(got) != 1 {
		t.Fatalf("query at (9,9) after caller mutation = %v, want the point itself only", got)
	}
}

// The steady-state delta update must not allocate — flat through Update,
// and tiled on two workers through UpdateCells (the world's fused path,
// whose ids patch and sharded coordinate gather run every step).
func TestUpdateSteadyStateAllocs(t *testing.T) {
	for _, tiled := range []bool{false, true} {
		t.Run(fmt.Sprintf("tiled=%v", tiled), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(3, 17))
			const side, radius = 50.0, 4.0
			const n = 2000
			xs := make([]float64, n)
			ys := make([]float64, n)
			cells := make([]int32, n)
			for i := range xs {
				xs[i] = rng.Float64() * side
				ys[i] = rng.Float64() * side
			}
			ix, err := New(side, radius)
			if err != nil {
				t.Fatal(err)
			}
			if tiled {
				if _, err := ix.EnableTiling(4, 2); err != nil {
					t.Fatal(err)
				}
			}
			ix.RebuildXY(xs, ys)
			step := func() {
				perturb(rng, xs, ys, side, 0.4)
				if tiled {
					ix.ClassifyInto(cells, xs, ys)
					ix.UpdateCells(xs, ys, cells, nil)
				} else {
					ix.Update(xs, ys, nil)
				}
			}
			for warm := 0; warm < 10; warm++ { // warm the delta scratch capacities
				step()
			}
			if avg := testing.AllocsPerRun(20, step); avg > 0 {
				t.Errorf("delta update allocates %v times per call in steady state, want 0", avg)
			}
		})
	}
}

// TestUpdatePatchBoundaries drives the run-copy ids patch through its edge
// cases with hand-placed points on a 5x5 bucket grid: events in the first
// and the last bucket (empty leading and trailing gap copies), in
// adjacent buckets (zero-length gap copies), a bucket emptied by
// departures, buckets filled from empty, a bucket that both loses and
// gains a point, arrivals that interleave with stayers by id, a single
// mover and zero movers. Every step also shifts the points that stay put
// inside their buckets, so the coordinate gather is checked on every
// step. Each scenario runs flat and tiled, through Update (with and
// without a dirty bitmap) and UpdateCells, against a fresh RebuildXY.
func TestUpdatePatchBoundaries(t *testing.T) {
	const side, radius = 20.0, 4.0
	const cols = 5
	// home[i] is point i's initial bucket. Buckets 2, 8, 12, 14, ... start
	// empty; bucket 7 holds three points, 0 and 24 two each.
	home := []int{0, 0, 1, 3, 4, 5, 6, 7, 7, 7, 9, 11, 13, 16, 18, 20, 22, 23, 24, 24}
	type move struct{ id, to int }
	steps := []struct {
		name  string
		moves []move
	}{
		{"zero movers", nil},
		{"single mover, first to last bucket", []move{{0, 24}}},
		{"single mover, last to first bucket", []move{{18, 0}}},
		{"adjacent buckets swap a point", []move{{5, 6}, {6, 5}}},
		{"bucket emptied, buckets filled from empty", []move{{7, 12}, {8, 2}, {9, 8}}},
		{"arrivals interleave by id in the last bucket", []move{{10, 24}, {1, 24}}},
		{"mover into the first bucket", []move{{2, 0}}},
		{"zero movers after events", nil},
	}
	// place returns a point's coordinates inside bucket c; phase varies the
	// offset so in-bucket moves change the coordinates.
	place := func(i, c, phase int) (x, y float64) {
		fx := 0.15 + 0.07*float64((i*7+phase*3)%10)
		fy := 0.15 + 0.07*float64((i*3+phase*5)%10)
		return (float64(c%cols) + fx) * radius, (float64(c/cols) + fy) * radius
	}
	const (
		viaUpdate      = "Update"
		viaUpdateDirty = "UpdateDirty"
		viaUpdateCells = "UpdateCells"
	)
	configs := []struct{ k, workers int }{{0, 1}, {1, 1}, {1, 2}, {4, 1}, {4, 2}}
	for _, cfg := range configs {
		for _, md := range []string{viaUpdate, viaUpdateDirty, viaUpdateCells} {
			t.Run(fmt.Sprintf("k=%d/workers=%d/%s", cfg.k, cfg.workers, md), func(t *testing.T) {
				n := len(home)
				cur := append([]int(nil), home...)
				xs := make([]float64, n)
				ys := make([]float64, n)
				dirty := make([]bool, n)
				cells := make([]int32, n)
				for i, c := range cur {
					xs[i], ys[i] = place(i, c, 0)
				}
				upd, err := New(side, radius)
				if err != nil {
					t.Fatal(err)
				}
				if upd.NumCells() != cols*cols {
					t.Fatalf("grid has %d buckets, want %d", upd.NumCells(), cols*cols)
				}
				if cfg.k > 0 {
					if _, err := upd.EnableTiling(cfg.k, cfg.workers); err != nil {
						t.Fatal(err)
					}
				}
				ref, err := New(side, radius)
				if err != nil {
					t.Fatal(err)
				}
				upd.RebuildXY(xs, ys)
				for s, st := range steps {
					phase := s + 1
					clear(dirty)
					for _, mv := range st.moves {
						cur[mv.id] = mv.to
						dirty[mv.id] = true
					}
					// Stayers shift inside their buckets: all of them, or
					// half of them when a dirty bitmap tells the index which.
					for i := range dirty {
						if md != viaUpdateDirty || (i+s)%2 == 0 {
							dirty[i] = true
						}
					}
					for i, c := range cur {
						if dirty[i] {
							xs[i], ys[i] = place(i, c, phase)
						}
					}
					switch md {
					case viaUpdate:
						upd.Update(xs, ys, nil)
					case viaUpdateDirty:
						upd.Update(xs, ys, dirty)
					case viaUpdateCells:
						ref.ClassifyInto(cells, xs, ys)
						upd.UpdateCells(xs, ys, cells, nil)
					}
					if len(upd.movers) != len(st.moves) {
						t.Fatalf("step %d (%s): %d movers, want %d", s, st.name, len(upd.movers), len(st.moves))
					}
					ref.RebuildXY(xs, ys)
					requireIdentical(t, s, upd, ref)
					for i, c := range cur {
						if upd.Cell(i) != c {
							t.Fatalf("step %d (%s): point %d in bucket %d, want %d", s, st.name, i, upd.Cell(i), c)
						}
					}
				}
			})
		}
	}
}
