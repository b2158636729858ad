package spatialindex

import (
	"math"
	"math/rand/v2"
	"testing"
)

func benchXY(n int, side float64, seed uint64) (xs, ys []float64) {
	rng := rand.New(rand.NewPCG(seed, 0xbe7c4))
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * side
		ys[i] = rng.Float64() * side
	}
	return xs, ys
}

func benchRebuildXY(b *testing.B, n int, side float64) {
	b.Helper()
	xs, ys := benchXY(n, side, 1)
	ix, err := New(side, 4)
	if err != nil {
		b.Fatal(err)
	}
	ix.RebuildXY(xs, ys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.RebuildXY(xs, ys)
	}
}

// BenchmarkRebuildXY10k measures the SoA counting-sort rebuild (including
// the CSR coordinate fill) at 10000 points.
func BenchmarkRebuildXY10k(b *testing.B) { benchRebuildXY(b, 10000, 100) }

// BenchmarkRebuildXY20k is the flood_step_20k-scale rebuild.
func BenchmarkRebuildXY20k(b *testing.B) { benchRebuildXY(b, 20000, 141.42) }

// benchFrames precomputes a synthetic mobility trajectory for the delta
// benchmarks: a ring of frames, each displacing every point by at most
// maxStep per coordinate from the previous one (maxStep controls the
// mover fraction against a bucket side of 4). zig maps an iteration to a
// frame in zigzag order (forward then backward, so every transition is
// one step's displacement) — the timed loops contain nothing but the
// index calls.
func benchFrames(n int, side, maxStep float64) (fx, fy [][]float64, zig func(int) int) {
	rng := rand.New(rand.NewPCG(2, 0xde17a))
	// A small ring keeps the frames cache-resident, matching the real
	// simulator, where the one live coordinate array is hot from the
	// mobility pass that just rewrote it.
	const frames = 8
	fx = make([][]float64, frames)
	fy = make([][]float64, frames)
	fx[0], fy[0] = benchXY(n, side, 1)
	for f := 1; f < frames; f++ {
		fx[f] = make([]float64, n)
		fy[f] = make([]float64, n)
		for i := 0; i < n; i++ {
			fx[f][i] = clamp01(fx[f-1][i]+(rng.Float64()*2-1)*maxStep, side)
			fy[f][i] = clamp01(fy[f-1][i]+(rng.Float64()*2-1)*maxStep, side)
		}
	}
	zig = func(i int) int { // 0 1 .. frames-1 frames-2 .. 1 0 1 ..
		p := i % (2*frames - 2)
		if p >= frames {
			p = 2*frames - 2 - p
		}
		return p
	}
	return fx, fy, zig
}

// benchUpdate drives the flat delta path over a benchFrames trajectory
// (radius 4, as in the rebuild benchmarks).
func benchUpdate(b *testing.B, n int, side, maxStep float64) {
	b.Helper()
	fx, fy, zig := benchFrames(n, side, maxStep)
	ix, err := New(side, 4)
	if err != nil {
		b.Fatal(err)
	}
	ix.RebuildXY(fx[0], fy[0])
	for warm := 1; warm <= 8; warm++ { // warm the delta scratch capacities
		f := zig(warm)
		ix.Update(fx[f], fy[f], nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := zig(i + 9)
		ix.Update(fx[f], fy[f], nil)
	}
}

// BenchmarkUpdate10kNone measures the delta floor: every coordinate
// changes but (almost) nobody changes bucket, so the update is the fused
// copy/compare pass plus the CSR coordinate refill.
func BenchmarkUpdate10kNone(b *testing.B) { benchUpdate(b, 10000, 100, 0.0005) }

// BenchmarkUpdate10kSlow is the delta update at the E03-default velocity
// scale (displacement 0.1 against bucket side 4: ~2.5% movers/step).
func BenchmarkUpdate10kSlow(b *testing.B) { benchUpdate(b, 10000, 100, 0.1) }

// BenchmarkUpdate10kMid is the world_step operating point (displacement
// 0.3: ~7.5% movers/step).
func BenchmarkUpdate10kMid(b *testing.B) { benchUpdate(b, 10000, 100, 0.3) }

// BenchmarkUpdate10kHot approaches the fallback crossover (displacement
// 2.0: ~50% movers/step).
func BenchmarkUpdate10kHot(b *testing.B) { benchUpdate(b, 10000, 100, 2.0) }

// BenchmarkUpdateCells100kTiled is the index sync of the flood_sparse_100k
// benchmark workload in isolation: 100k points on a side of 2*sqrt(n),
// radius 4, a 4x4 tiling on 2 workers, driven through UpdateCells with
// displacement 0.1 per step (~2.5% movers). The classification of every
// frame is precomputed, so the timed loop is the sync alone; ns/agent is
// the figure the traced benchmark reports as
// spatialindex.sync_ns_per_agent. The sync leaves the bucket-major
// coordinates pending and nothing here reads them, so the benchmark does
// not measure the coordinate gather: a flood step settles only the
// buckets its sweep reads (BenchmarkFloodStep100kTiled in the root
// package measures the whole step).
func BenchmarkUpdateCells100kTiled(b *testing.B) {
	const n = 100000
	side := 2 * math.Sqrt(n)
	fx, fy, zig := benchFrames(n, side, 0.1)
	ix, err := New(side, 4)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ix.EnableTiling(4, 2); err != nil {
		b.Fatal(err)
	}
	cells := make([][]int32, len(fx))
	for f := range fx {
		cells[f] = make([]int32, n)
		ix.ClassifyInto(cells[f], fx[f], fy[f])
	}
	ix.RebuildXY(fx[0], fy[0])
	for warm := 1; warm <= 8; warm++ {
		f := zig(warm)
		ix.UpdateCells(fx[f], fy[f], cells[f], nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := zig(i + 9)
		ix.UpdateCells(fx[f], fy[f], cells[f], nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/agent")
}

// BenchmarkRebuildXYCells100k is the full counting-sort rebuild at the
// flood_sparse_100k geometry (100k points on a side of 2*sqrt(n), radius
// 4) with the classification precomputed, flat and on a 4x4 tiling with
// 2 workers: the ablation that shows whether a tiled index needs a sort
// of its own.
func BenchmarkRebuildXYCells100k(b *testing.B) {
	const n = 100000
	side := 2 * math.Sqrt(n)
	xs, ys := benchXY(n, side, 1)
	for _, bc := range []struct {
		name           string
		tiles, workers int
	}{{"flat", 0, 1}, {"tiles4_w2", 4, 2}} {
		b.Run(bc.name, func(b *testing.B) {
			ix, err := New(side, 4)
			if err != nil {
				b.Fatal(err)
			}
			if bc.tiles > 0 {
				if _, err := ix.EnableTiling(bc.tiles, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
			cells := make([]int32, n)
			ix.ClassifyInto(cells, xs, ys)
			ix.RebuildXYCells(xs, ys, cells)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.RebuildXYCells(xs, ys, cells)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/agent")
		})
	}
}
