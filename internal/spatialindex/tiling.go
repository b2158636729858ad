package spatialindex

import (
	"fmt"

	"manhattanflood/internal/panicsafe"
)

// Tiling partitions the bucket grid into K x K rectangular tiles and
// shards the index's per-step passes over a worker pool. It is the
// sharded-ownership layer of the tiled world: the delta update's
// classify-compare scan runs over contiguous id ranges, and its ids and
// starts patch and the settling of pending coordinates run over
// contiguous bucket ranges, each shard writing only state it owns. The
// tile geometry itself is read by the flooding sweep (internal/core),
// which visits whole tiles and skips those without a frontier agent.
// Rebuilds use the flat counting sort either way, so the index state is
// bit-identical to the untiled index's at any K and worker count, and
// every consumer (flood sweep, disk graph, queries) reads the tiled
// index exactly as it reads the flat one.
//
// # Ownership handoff and ghost spans
//
// In the message-passing formulation of this design (the congested-clique
// playbook: compute over sharded edge sets, exchange only bounded
// boundary data per round) a tile would ship two things to its eight
// neighbors each round: agents that crossed its border ("handoff") and
// read-only copies of agents within radius R of its edges ("ghost
// spans"). In this shared-memory realization both degenerate to index
// structure: re-bucketing an agent IS the handoff (it re-assigns its
// owner), and a neighbor's border rows ARE the ghost spans — the
// flooding sweep of tile T reads them directly out of the shared CSR
// instead of receiving a copy, because the 3x3 block of a border bucket
// overlaps the neighbor's rows. The determinism discipline is the same
// either way: tiles write only what they own, and the merge order
// (tile-major) is fixed, so tiled == flat stays bit-identical.
type Tiling struct {
	ix      *Index
	k       int // tiles per side (clamped to the bucket grid)
	workers int

	cuts        []int32   // tile boundary columns/rows: tile i owns [cuts[i], cuts[i+1])
	tileOfCol   []int32   // bucket column (or row) -> tile column (or row)
	shardMovers [][]int32 // per shard: movers found by the parallel compare scan

	// Pass arguments and bodies for parallelRanges. The bodies are built
	// once in EnableTiling and capture only tl; their per-call inputs
	// travel through the p* fields. A closure built at the call site
	// would escape (the goroutine branch references it) and cost an
	// allocation per world step — the steady state must stay zero-alloc
	// like the flat path's.
	pcells    []int32
	pcellOf   []int32
	compareFn func(shard, lo, hi int)
	patchFn   func(shard, lo, hi int)
	settleFn  func(shard, lo, hi int)

	fan panicsafe.Fanout
}

// EnableTiling attaches a K x K tiling to the index: from the next
// update on, the delta update's compare scan and ids patch, and the
// settling of all pending coordinates for a public reader, run sharded
// on up to `workers` goroutines (workers <= 1 keeps every pass on the
// calling goroutine), and the flooding sweep shards along the tiles. K is
// clamped to the bucket grid side, so K = 1 is always legal. The
// resulting index state is bit-identical to the untiled index at every K
// and worker count; tiling changes only how the state is computed.
func (ix *Index) EnableTiling(k, workers int) (*Tiling, error) {
	if k < 1 {
		return nil, fmt.Errorf("spatialindex: tiling needs at least 1 tile per side, got %d", k)
	}
	if k > ix.cols {
		k = ix.cols
	}
	if workers < 1 {
		workers = 1
	}
	tl := &Tiling{ix: ix, k: k, workers: workers}
	tl.cuts = make([]int32, k+1)
	for i := 0; i <= k; i++ {
		tl.cuts[i] = int32(i * ix.cols / k)
	}
	tl.tileOfCol = make([]int32, ix.cols)
	for tx := 0; tx < k; tx++ {
		for c := tl.cuts[tx]; c < tl.cuts[tx+1]; c++ {
			tl.tileOfCol[c] = int32(tx)
		}
	}
	tl.compareFn = tl.compareRange
	tl.patchFn = tl.patchRange
	tl.settleFn = tl.settleRange
	ix.tiling = tl
	return tl, nil
}

// Tiling returns the tiling attached by EnableTiling, or nil for a flat
// index. Consumers (the flooding sweep) use it to shard their own passes
// along the same tile boundaries.
func (ix *Index) Tiling() *Tiling { return ix.tiling }

// K returns the tiles-per-side count (after clamping to the grid).
func (tl *Tiling) K() int { return tl.k }

// NumTiles returns K*K.
func (tl *Tiling) NumTiles() int { return tl.k * tl.k }

// Workers returns the worker-goroutine budget of the tiled passes.
func (tl *Tiling) Workers() int { return tl.workers }

// TileBounds returns the inclusive bucket-coordinate rectangle
// [x0, x1] x [y0, y1] owned by tile t.
func (tl *Tiling) TileBounds(t int) (x0, x1, y0, y1 int) {
	tx, ty := t%tl.k, t/tl.k
	return int(tl.cuts[tx]), int(tl.cuts[tx+1]) - 1, int(tl.cuts[ty]), int(tl.cuts[ty+1]) - 1
}

// TileOfBucket returns the tile owning bucket c.
func (tl *Tiling) TileOfBucket(c int) int {
	cols := tl.ix.cols
	return int(tl.tileOfCol[c/cols])*tl.k + int(tl.tileOfCol[c%cols])
}

// parallelRanges invokes fn(shard, lo, hi) for up to tl.workers contiguous
// chunks of [0, n), concurrently when workers > 1. Every fn writes only
// shard-disjoint state, so the schedule cannot affect the result; panics
// are forwarded to the caller.
func (tl *Tiling) parallelRanges(n int, fn func(shard, lo, hi int)) {
	tl.fan.Run(tl.workers, n, fn)
}

// nshards returns how many shards a pass over n items uses.
func (tl *Tiling) nshards(n int) int {
	if tl.workers <= 1 || n == 0 {
		return 1
	}
	if tl.workers > n {
		return n
	}
	return tl.workers
}

// compareScan is the tiled delta path's parallel classify-compare: shards
// scan cells against the stored classification and collect the ids whose
// bucket changed into per-shard lists, which are concatenated onto dst in
// shard order (shards are ascending id ranges, so the merged mover list
// is ascending). The caller replays the per-bucket bookkeeping over just
// the movers. The scan itself is two streaming reads per point — the pass
// the flat path runs sequentially fused with its bookkeeping.
func (tl *Tiling) compareScan(cells, cellOf, dst []int32) []int32 {
	n := len(cells)
	nsh := tl.nshards(n)
	for len(tl.shardMovers) < nsh {
		tl.shardMovers = append(tl.shardMovers, nil)
	}
	for s := 0; s < nsh; s++ {
		tl.shardMovers[s] = tl.shardMovers[s][:0]
	}
	tl.pcells, tl.pcellOf = cells, cellOf
	tl.parallelRanges(n, tl.compareFn)
	tl.pcells, tl.pcellOf = nil, nil
	for s := 0; s < nsh; s++ {
		dst = append(dst, tl.shardMovers[s]...)
	}
	return dst
}

// compareRange is compareScan's classify-compare over one shard
// (pcells = fresh classification, pcellOf = stored classification).
func (tl *Tiling) compareRange(shard, lo, hi int) {
	cells := tl.pcells[lo:hi]
	cellOf := tl.pcellOf[lo:hi][:len(cells)]
	out := tl.shardMovers[shard]
	for i, c := range cells {
		if c != cellOf[i] {
			out = append(out, int32(lo+i))
		}
	}
	tl.shardMovers[shard] = out
}

// patchRange is the delta update's per-worker patch over buckets [lo, hi).
func (tl *Tiling) patchRange(_, lo, hi int) { tl.ix.patchRange(lo, hi) }

// settleRange is settleAll's per-worker body over pending-bitmap words
// [lo, hi).
func (tl *Tiling) settleRange(_, lo, hi int) { tl.ix.settleWords(lo, hi) }
