package spatialindex

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"manhattanflood/internal/geom"
)

// requireSettledMatch fails unless got's ids and starts equal want's
// everywhere and got's coordinates equal want's in every bucket that is
// not pending. It reads got's arrays directly, so it observes the pending
// state without settling anything.
func requireSettledMatch(t *testing.T, label string, got, want *Index) {
	t.Helper()
	wids, wx, wy := want.CSR()
	for c := 0; c <= want.NumCells(); c++ {
		if got.starts[c] != want.starts[c] {
			t.Fatalf("%s: starts[%d] = %d, want %d", label, c, got.starts[c], want.starts[c])
		}
	}
	for k := range wids {
		if got.ids[k] != wids[k] {
			t.Fatalf("%s: ids[%d] = %d, want %d", label, k, got.ids[k], wids[k])
		}
	}
	for c := 0; c < want.NumCells(); c++ {
		if got.pending[c>>6]&(1<<uint(c&63)) != 0 {
			continue
		}
		for k := want.starts[c]; k < want.starts[c+1]; k++ {
			if got.cx[k] != wx[k] || got.cy[k] != wy[k] {
				t.Fatalf("%s: settled bucket %d: coords[%d] = (%v, %v), want (%v, %v)",
					label, c, k, got.cx[k], got.cy[k], wx[k], wy[k])
			}
		}
	}
}

// randomNeed draws a random partial settle set: a few bucket ranges of
// random length, possibly overlapping, sometimes empty.
func randomNeed(rng *rand.Rand, m int) []BucketRange {
	need := make([]BucketRange, rng.IntN(6))
	for i := range need {
		lo := rng.IntN(m)
		hi := min(m, lo+rng.IntN(5))
		need[i] = BucketRange{Lo: int32(lo), Hi: int32(hi)}
	}
	return need
}

// Pending-coordinates property: after any mix of delta syncs (Update and
// UpdateCells, nil and dirty), rebuilds and partial settles, on flat and
// tiled indexes, every bucket a SettleCSR named — and every bucket not
// pending — holds exactly the coordinates of a fresh RebuildXY, ids and
// starts are exact everywhere, and CSR() returns the fresh arrays.
func TestPendingCoordinatesProperty(t *testing.T) {
	const side, radius, n = 40.0, 3.0, 600
	for _, tiling := range []struct{ k, workers int }{
		{0, 0}, {1, 1}, {2, 3}, {3, 2}, {4, 4}, {4, 1},
	} {
		t.Run(fmt.Sprintf("K%d_w%d", tiling.k, tiling.workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(17, uint64(tiling.k*10+tiling.workers)))
			ix, err := New(side, radius)
			if err != nil {
				t.Fatal(err)
			}
			if tiling.k > 0 {
				if _, err := ix.EnableTiling(tiling.k, tiling.workers); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := New(side, radius)
			if err != nil {
				t.Fatal(err)
			}
			xs, ys := randomPoints(rng, n, side)
			cells := make([]int32, n)
			dirty := make([]bool, n)
			ix.RebuildXY(xs, ys)
			for step := 0; step < 120; step++ {
				op := rng.IntN(7)
				// Move everyone for the nil-dirty syncs and rebuilds, a
				// random subset (flagged) for the dirty syncs.
				if op == 2 || op == 3 {
					clear(dirty)
					for i := range xs {
						if rng.IntN(3) == 0 {
							dirty[i] = true
							xs[i] = clamp01(xs[i]+(rng.Float64()*2-1)*0.8, side)
							ys[i] = clamp01(ys[i]+(rng.Float64()*2-1)*0.8, side)
						}
					}
				} else {
					perturb(rng, xs, ys, side, 0.8)
				}
				ix.ClassifyInto(cells, xs, ys)
				switch op {
				case 0:
					ix.Update(xs, ys, nil)
				case 1:
					ix.UpdateCells(xs, ys, cells, nil)
				case 2:
					ix.Update(xs, ys, dirty)
				case 3:
					ix.UpdateCells(xs, ys, cells, dirty)
				case 4:
					ix.RebuildXY(xs, ys)
				case 5:
					ix.RebuildXYCells(xs, ys, cells)
				case 6:
					// A large displacement: exercises the bail.
					perturb(rng, xs, ys, side, 15)
					ix.Update(xs, ys, nil)
				}
				ref.RebuildXY(xs, ys)
				label := fmt.Sprintf("step %d op %d", step, op)
				requireSettledMatch(t, label, ix, ref)
				for round := 0; round < 1+rng.IntN(3); round++ {
					need := randomNeed(rng, ix.NumCells())
					ix.SettleCSR(need)
					for _, r := range need {
						for c := r.Lo; c < r.Hi; c++ {
							if ix.pending[c>>6]&(1<<uint(c&63)) != 0 {
								t.Fatalf("%s: bucket %d still pending after SettleCSR", label, c)
							}
						}
					}
					requireSettledMatch(t, label, ix, ref)
				}
				// Leave some syncs partially settled, so pending state
				// carries into the next sync.
				if rng.IntN(2) == 0 {
					requireIdentical(t, step, ix, ref)
				}
			}
		})
	}
}

// Concurrent readers right after a delta sync: the first to run settles
// under the lock and the rest read the settled arrays. Every reader must
// see exactly a fresh rebuild's answers. The race detector (make
// test-race) checks the settling itself.
func TestConcurrentReadersAfterDeltaSync(t *testing.T) {
	const side, radius, n = 60.0, 4.0, 2000
	for _, k := range []int{0, 3} {
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(5, uint64(k)))
			ix, err := New(side, radius)
			if err != nil {
				t.Fatal(err)
			}
			if k > 0 {
				if _, err := ix.EnableTiling(k, 2); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := New(side, radius)
			if err != nil {
				t.Fatal(err)
			}
			xs, ys := randomPoints(rng, n, side)
			ix.RebuildXY(xs, ys)
			queries := make([]geom.Point, 64)
			for i := range queries {
				queries[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
			}
			for round := 0; round < 5; round++ {
				perturb(rng, xs, ys, side, 0.3)
				ix.Update(xs, ys, nil)
				ref.RebuildXY(xs, ys)
				wids, wx, wy := ref.CSR()

				var wg sync.WaitGroup
				start := make(chan struct{})
				errs := make(chan error, 4*len(queries)+8)
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						<-start
						for qi := g; qi < len(queries); qi += 8 {
							q := queries[qi]
							switch (qi + round) % 4 {
							case 0:
								ids, cx, cy := ix.CSR()
								for kk := range wids {
									if ids[kk] != wids[kk] || cx[kk] != wx[kk] || cy[kk] != wy[kk] {
										errs <- fmt.Errorf("CSR differs at %d", kk)
										return
									}
								}
							case 1:
								got := ix.Neighbors(q, -1, nil)
								want := ref.Neighbors(q, -1, nil)
								if fmt.Sprint(got) != fmt.Sprint(want) {
									errs <- fmt.Errorf("Neighbors(%v) = %v, want %v", q, got, want)
								}
							case 2:
								if got, want := ix.CountNeighbors(q, -1), ref.CountNeighbors(q, -1); got != want {
									errs <- fmt.Errorf("CountNeighbors(%v) = %d, want %d", q, got, want)
								}
							case 3:
								var gs, ws [3]Span
								gn, wn := ix.BlockSpans(q.X, q.Y, &gs), ref.BlockSpans(q.X, q.Y, &ws)
								if gn != wn || fmt.Sprint(gs[:gn]) != fmt.Sprint(ws[:wn]) {
									errs <- fmt.Errorf("BlockSpans(%v) differ", q)
								}
							}
						}
					}(g)
				}
				close(start)
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatalf("sync %d: %v", round, err)
				}
			}
		})
	}
}
