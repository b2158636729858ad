package spatialindex

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// Tiling property: a tiled index is bit-identical to a flat one after any
// sequence of rebuilds and updates — same starts, same bucket-major ids,
// same CSR coordinate streams — at every K and worker count. The tests
// below drive flat/tiled pairs through the same inputs and compare with
// requireIdentical (the same oracle the delta-update tests use).

func newTiledPair(t *testing.T, side, radius float64, k, workers int) (flat, tiled *Index) {
	t.Helper()
	flat, err := New(side, radius)
	if err != nil {
		t.Fatalf("New flat: %v", err)
	}
	tiled, err = New(side, radius)
	if err != nil {
		t.Fatalf("New tiled: %v", err)
	}
	tl, err := tiled.EnableTiling(k, workers)
	if err != nil {
		t.Fatalf("EnableTiling(%d, %d): %v", k, workers, err)
	}
	if tiled.Tiling() != tl {
		t.Fatalf("Tiling() accessor did not return the enabled tiling")
	}
	return flat, tiled
}

func randomPoints(rng *rand.Rand, n int, side float64) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * side
		ys[i] = rng.Float64() * side
	}
	return xs, ys
}

// tilingGrid is the acceptance matrix: every K in {1, 2, 4} crossed with
// serial and parallel workers (plus an odd K that doesn't divide the
// bucket grid evenly, and one K larger than the grid to exercise the
// clamp).
var tilingGrid = []struct{ k, workers int }{
	{1, 1}, {1, 4},
	{2, 1}, {2, 4},
	{3, 1}, {3, 4},
	{4, 1}, {4, 4},
	{1000, 4},
}

func TestTiledRebuildMatchesFlat(t *testing.T) {
	const side, radius = 10.0, 1.0
	for _, tc := range tilingGrid {
		for _, n := range []int{0, 1, 7, 1000} {
			t.Run(fmt.Sprintf("k=%d/workers=%d/n=%d", tc.k, tc.workers, n), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(42, uint64(n)))
				flat, tiled := newTiledPair(t, side, radius, tc.k, tc.workers)
				xs, ys := randomPoints(rng, n, side)
				for step := 0; step < 5; step++ {
					flat.RebuildXY(xs, ys)
					tiled.RebuildXY(xs, ys)
					requireIdentical(t, step, tiled, flat)
					perturb(rng, xs, ys, side, 2.5)
				}
			})
		}
	}
}

func TestTiledUpdateMatchesFlat(t *testing.T) {
	const side, radius = 10.0, 1.0
	const n = 800
	for _, tc := range tilingGrid {
		// maxStep 0.02 keeps movers rare (delta regime); 0.6 forces heavy
		// mover traffic; 9.0 teleports enough points to cross the
		// UpdateFallbackFraction bail into the tiled rebuild.
		for _, maxStep := range []float64{0.02, 0.6, 9.0} {
			t.Run(fmt.Sprintf("k=%d/workers=%d/step=%v", tc.k, tc.workers, maxStep), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(7, uint64(maxStep*100)))
				flat, tiled := newTiledPair(t, side, radius, tc.k, tc.workers)
				xs, ys := randomPoints(rng, n, side)
				// Update retains the caller's slices, so each index owns a pair.
				fxs, fys := append([]float64(nil), xs...), append([]float64(nil), ys...)
				txs, tys := append([]float64(nil), xs...), append([]float64(nil), ys...)
				flat.RebuildXY(xs, ys)
				tiled.RebuildXY(xs, ys)
				for step := 0; step < 30; step++ {
					perturb(rng, xs, ys, side, maxStep)
					copy(fxs, xs)
					copy(fys, ys)
					copy(txs, xs)
					copy(tys, ys)
					flat.Update(fxs, fys, nil)
					tiled.Update(txs, tys, nil)
					requireIdentical(t, step, tiled, flat)
				}
			})
		}
	}
}

func TestTiledUpdateCellsMatchesFlat(t *testing.T) {
	const side, radius = 10.0, 1.0
	const n = 600
	for _, tc := range tilingGrid {
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(11, 3))
			flat, tiled := newTiledPair(t, side, radius, tc.k, tc.workers)
			xs, ys := randomPoints(rng, n, side)
			fxs, fys := append([]float64(nil), xs...), append([]float64(nil), ys...)
			txs, tys := append([]float64(nil), xs...), append([]float64(nil), ys...)
			cells := make([]int32, n)
			flat.ClassifyInto(cells, xs, ys)
			flat.RebuildXYCells(xs, ys, cells)
			tiled.RebuildXYCells(xs, ys, cells)
			requireIdentical(t, -1, tiled, flat)
			for step := 0; step < 20; step++ {
				perturb(rng, xs, ys, side, 0.3)
				copy(fxs, xs)
				copy(fys, ys)
				copy(txs, xs)
				copy(tys, ys)
				flat.ClassifyInto(cells, xs, ys)
				flat.UpdateCells(fxs, fys, cells, nil)
				tiled.UpdateCells(txs, tys, cells, nil)
				requireIdentical(t, step, tiled, flat)
			}
		})
	}
}

// TestTiledUpdateDirtyMatchesFlat drives the dirty-bitmap delta path (the
// pause-model regime): only flagged points move, and both sides must
// patch the same CSR.
func TestTiledUpdateDirtyMatchesFlat(t *testing.T) {
	const side, radius = 10.0, 1.0
	const n = 500
	for _, tc := range tilingGrid {
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(13, 5))
			flat, tiled := newTiledPair(t, side, radius, tc.k, tc.workers)
			xs, ys := randomPoints(rng, n, side)
			fxs, fys := append([]float64(nil), xs...), append([]float64(nil), ys...)
			txs, tys := append([]float64(nil), xs...), append([]float64(nil), ys...)
			flat.RebuildXY(xs, ys)
			tiled.RebuildXY(xs, ys)
			dirty := make([]bool, n)
			for step := 0; step < 20; step++ {
				for i := range dirty {
					dirty[i] = rng.Float64() < 0.2
					if dirty[i] {
						xs[i] = clamp01(xs[i]+(rng.Float64()*2-1)*0.8, side)
						ys[i] = clamp01(ys[i]+(rng.Float64()*2-1)*0.8, side)
					}
				}
				copy(fxs, xs)
				copy(fys, ys)
				copy(txs, xs)
				copy(tys, ys)
				flat.Update(fxs, fys, dirty)
				tiled.Update(txs, tys, dirty)
				requireIdentical(t, step, tiled, flat)
			}
		})
	}
}

// --- Edge cases tiling stresses (satellite: UpdateCells/RebuildXYCells) ---

// TestTiledEmptyTiles clusters the whole population inside one bucket so
// every other tile is empty: empty tiles must contribute empty spans, not
// stale state, on both the rebuild and the delta paths.
func TestTiledEmptyTiles(t *testing.T) {
	const side, radius = 16.0, 1.0
	const n = 300
	for _, tc := range tilingGrid {
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(17, 1))
			flat, tiled := newTiledPair(t, side, radius, tc.k, tc.workers)
			xs := make([]float64, n)
			ys := make([]float64, n)
			for i := range xs {
				xs[i] = 3.0 + rng.Float64()*0.9 // all inside bucket column 3
				ys[i] = 5.0 + rng.Float64()*0.9
			}
			fxs, fys := append([]float64(nil), xs...), append([]float64(nil), ys...)
			txs, tys := append([]float64(nil), xs...), append([]float64(nil), ys...)
			flat.RebuildXY(xs, ys)
			tiled.RebuildXY(xs, ys)
			requireIdentical(t, -1, tiled, flat)
			if lo, hi := tiled.CellSpanBounds(0); hi != lo {
				t.Fatalf("empty bucket 0 reports %d points", hi-lo)
			}
			for step := 0; step < 10; step++ {
				perturb(rng, xs, ys, side, 0.2)
				copy(fxs, xs)
				copy(fys, ys)
				copy(txs, xs)
				copy(tys, ys)
				flat.Update(fxs, fys, nil)
				tiled.Update(txs, tys, nil)
				requireIdentical(t, step, tiled, flat)
			}
		})
	}
}

// TestTiledSingleOccupantBuckets places exactly one point per bucket (the
// sparsest non-empty regime: every mover empties one bucket and fills
// another) and marches the population one bucket to the right each step.
func TestTiledSingleOccupantBuckets(t *testing.T) {
	const side, radius = 8.0, 1.0
	for _, tc := range tilingGrid {
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			flat, tiled := newTiledPair(t, side, radius, tc.k, tc.workers)
			cols := flat.Cols()
			n := cols * cols
			xs := make([]float64, n)
			ys := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i%cols) + 0.5
				ys[i] = float64(i/cols) + 0.5
			}
			fxs, fys := append([]float64(nil), xs...), append([]float64(nil), ys...)
			txs, tys := append([]float64(nil), xs...), append([]float64(nil), ys...)
			flat.RebuildXY(xs, ys)
			tiled.RebuildXY(xs, ys)
			for c := 0; c < flat.NumCells(); c++ {
				if lo, hi := tiled.CellSpanBounds(c); hi-lo != 1 {
					t.Fatalf("bucket %d holds %d points, want 1", c, hi-lo)
				}
			}
			// A 0.3 shift keeps everyone in place; repeated, points cross
			// bucket (and tile) boundaries in waves.
			for step := 0; step < 12; step++ {
				for i := range xs {
					xs[i] = clamp01(xs[i]+0.3, side)
				}
				copy(fxs, xs)
				copy(fys, ys)
				copy(txs, xs)
				copy(tys, ys)
				flat.Update(fxs, fys, nil)
				tiled.Update(txs, tys, nil)
				requireIdentical(t, step, tiled, flat)
			}
		})
	}
}

// TestTiledSeamSpanningPopulation concentrates the population in a thin
// band across a tile seam and jitters it back and forth over the boundary
// — the ownership-handoff worst case: a large fraction of movers changes
// owning tile every step.
func TestTiledSeamSpanningPopulation(t *testing.T) {
	const side, radius = 10.0, 1.0
	const n = 400
	for _, tc := range tilingGrid {
		if tc.k < 2 {
			continue // no interior seam to span
		}
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(23, 9))
			flat, tiled := newTiledPair(t, side, radius, tc.k, tc.workers)
			// First interior seam of the (possibly clamped) tiling, in
			// world coordinates.
			tl := tiled.Tiling()
			_, x1, _, _ := tl.TileBounds(0)
			seam := float64(x1+1) * radius
			xs := make([]float64, n)
			ys := make([]float64, n)
			for i := range xs {
				xs[i] = clamp01(seam+(rng.Float64()*2-1)*0.4, side)
				ys[i] = rng.Float64() * side
			}
			fxs, fys := append([]float64(nil), xs...), append([]float64(nil), ys...)
			txs, tys := append([]float64(nil), xs...), append([]float64(nil), ys...)
			flat.RebuildXY(xs, ys)
			tiled.RebuildXY(xs, ys)
			for step := 0; step < 20; step++ {
				for i := range xs {
					xs[i] = clamp01(seam+(rng.Float64()*2-1)*0.4, side)
				}
				copy(fxs, xs)
				copy(fys, ys)
				copy(txs, xs)
				copy(tys, ys)
				flat.Update(fxs, fys, nil)
				tiled.Update(txs, tys, nil)
				requireIdentical(t, step, tiled, flat)
			}
		})
	}
}

// TestTiledResizeMidRun grows and shrinks the population between updates:
// a length change has no delta to exploit and must degrade to a (tiled)
// rebuild of the given slices on both sides.
func TestTiledResizeMidRun(t *testing.T) {
	const side, radius = 10.0, 1.0
	for _, tc := range tilingGrid {
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(29, 2))
			flat, tiled := newTiledPair(t, side, radius, tc.k, tc.workers)
			for step, n := range []int{100, 700, 250, 0, 400} {
				xs, ys := randomPoints(rng, n, side)
				fxs, fys := append([]float64(nil), xs...), append([]float64(nil), ys...)
				txs, tys := append([]float64(nil), xs...), append([]float64(nil), ys...)
				flat.Update(fxs, fys, nil)
				tiled.Update(txs, tys, nil)
				requireIdentical(t, step, tiled, flat)
				// And a same-size delta step on the new population.
				perturb(rng, xs, ys, side, 0.2)
				copy(fxs, xs)
				copy(fys, ys)
				copy(txs, xs)
				copy(tys, ys)
				flat.Update(fxs, fys, nil)
				tiled.Update(txs, tys, nil)
				requireIdentical(t, step, tiled, flat)
			}
		})
	}
}
