package spatialindex

import (
	"fmt"

	"manhattanflood/internal/panicsafe"
)

// Tiling partitions the bucket grid into K x K rectangular tiles and turns
// the index's maintenance passes into tile-parallel, cache-resident work
// units. It is the sharded-ownership layer of the tiled world: each tile
// owns the agents currently inside its bucket rectangle, re-sorts them with
// a tile-local counting sort whose cursor working set fits in cache, and
// writes its buckets' spans straight into the shared global CSR arrays at
// offsets fixed by one global prefix sum. The assembled CSR — starts, ids,
// bucket-major coordinates — is bit-identical to the flat counting sort's
// at any K and worker count, so every consumer (flood sweep, disk graph,
// queries) reads the tiled index exactly as it reads the flat one.
//
// # Why tiles help
//
// The flat counting sort scatters n ids through a cursor array of
// NumCells entries and an ids array of n entries; beyond ~10^5 agents
// neither fits in cache and every scatter write misses. The tiled rebuild
// is a two-level sort: a partition pass groups agent ids by tile (K^2
// write heads — cache-friendly streaming), then each tile counting-sorts
// only its own members through only its own buckets' cursors (~NumCells/K^2
// entries, a few KiB) into its own CSR spans (~n/K^2 ids). The per-tile
// working set is cache-resident again, and tiles are independent, so the
// sort also parallelizes across the worker pool. The delta path shares
// the flat index's code and only shards it: the classify-compare scan
// (two streaming reads) over id ranges, and the ids and starts patch over
// bucket ranges.
//
// # Ownership handoff and ghost spans
//
// In the message-passing formulation of this design (the congested-clique
// playbook: compute over sharded edge sets, exchange only bounded
// boundary data per round) a tile would ship two things to its eight
// neighbors each round: agents that crossed its border ("handoff") and
// read-only copies of agents within radius R of its edges ("ghost
// spans"). In this shared-memory realization both degenerate to index
// structure: the partition pass IS the handoff (re-bucketing an agent
// re-assigns its owner), and a neighbor's border rows ARE the ghost spans
// — the flooding sweep of tile T reads them directly out of the assembled
// CSR instead of receiving a copy, because the 3x3 block of a border
// bucket overlaps the neighbor's rows. The determinism discipline is the
// same either way: tiles write only what they own, and the merge order
// (tile-major) is fixed, so tiled == flat stays bit-identical.
type Tiling struct {
	ix      *Index
	k       int // tiles per side (clamped to the bucket grid)
	workers int

	cuts         []int32 // tile boundary columns/rows: tile i owns [cuts[i], cuts[i+1])
	tileOfBucket []int32 // bucket id -> tile id, row-major tiles
	tileOfCol    []int32 // bucket column -> tile column

	// Partition scratch: agents grouped by owning tile, ascending id order
	// within each tile (segment t is [tileStarts[t], tileStarts[t+1])). The
	// partition scatter materializes each member's bucket id and position
	// alongside its id — one interleaved record, so the scatter maintains a
	// single write stream per tile (not one per field array) and the
	// per-tile sort never gathers from the global id-indexed arrays: every
	// downstream read is a sequential scan of a tile segment.
	tileStarts   []int32
	tileRecs     []tileRec
	shardCounts  [][]int32 // per partition shard: per-tile member counts
	shardBuckets [][]int32 // per shard: per-bucket occupancy counts
	shardMovers  [][]int32 // per shard: movers found by the parallel compare scan
	lastShards   int       // shard count of the latest partition pass

	// Pass arguments and bodies for parallelRanges. The bodies are built
	// once in EnableTiling and capture only tl; their per-call inputs
	// travel through the p* fields. A closure built at the call site
	// would escape (the goroutine branch references it) and cost an
	// allocation per world step — the steady state must stay zero-alloc
	// like the flat path's.
	pcells    []int32
	pcellOf   []int32
	pxs, pys  []float64
	countFn   func(shard, lo, hi int)
	scatterFn func(shard, lo, hi int)
	tilesFn   func(shard, lo, hi int)
	compareFn func(shard, lo, hi int)
	patchFn   func(shard, lo, hi int)
	settleFn  func(shard, lo, hi int)

	fan panicsafe.Fanout
}

// tileRec is one partitioned agent: its position, id, and bucket, packed
// into a 24-byte record so the partition scatter issues one contiguous
// write per agent instead of four scattered ones.
type tileRec struct {
	x, y     float64
	id, cell int32
}

// EnableTiling attaches a K x K tiling to the index: from the next
// rebuild or update on, the counting sort runs as tile-parallel passes
// and the delta update's compare scan and ids patch run sharded, on up
// to `workers` goroutines (workers <= 1 keeps every pass on the calling
// goroutine — the cache-locality win of the
// two-level sort applies regardless). K is clamped to the bucket grid
// side, so K = 1 is always legal and degenerates to the flat algorithm's
// work shape with the tiled code path. Settling all pending coordinates
// for a public reader also runs sharded. The resulting index state is
// bit-identical to the untiled index at every K and worker count; tiling
// changes only how the state is computed.
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
	cols := ix.cols
	tl.tileOfCol = make([]int32, cols)
	for tx := 0; tx < k; tx++ {
		for c := tl.cuts[tx]; c < tl.cuts[tx+1]; c++ {
			tl.tileOfCol[c] = int32(tx)
		}
	}
	tl.tileOfBucket = make([]int32, cols*cols)
	for by := 0; by < cols; by++ {
		ty := tl.tileOfCol[by]
		for bx := 0; bx < cols; bx++ {
			tl.tileOfBucket[by*cols+bx] = ty*int32(k) + tl.tileOfCol[bx]
		}
	}
	tl.tileStarts = make([]int32, k*k+1)
	tl.countFn = tl.countRange
	tl.scatterFn = tl.scatterRange
	tl.tilesFn = tl.tileRange
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
func (tl *Tiling) TileOfBucket(c int) int { return int(tl.tileOfBucket[c]) }

// parallelRanges invokes fn(shard, lo, hi) for up to tl.workers contiguous
// chunks of [0, n), concurrently when workers > 1. Every fn writes only
// shard-disjoint state, so the schedule cannot affect the result; panics
// are forwarded to the caller.
func (tl *Tiling) parallelRanges(n int, fn func(shard, lo, hi int)) {
	tl.fan.Run(tl.workers, n, fn)
}

// nshards returns how many partition shards a pass over n items uses.
func (tl *Tiling) nshards(n int) int {
	if tl.workers <= 1 || n == 0 {
		return 1
	}
	if tl.workers > n {
		return n
	}
	return tl.workers
}

// ensureScratch sizes the partition scratch for n points.
func (tl *Tiling) ensureScratch(n int) {
	if cap(tl.tileRecs) < n {
		tl.tileRecs = make([]tileRec, n)
	}
	tl.tileRecs = tl.tileRecs[:n]
	nt := tl.NumTiles()
	m := tl.ix.cols * tl.ix.cols
	for len(tl.shardCounts) < tl.workers {
		tl.shardCounts = append(tl.shardCounts, make([]int32, nt))
		tl.shardBuckets = append(tl.shardBuckets, make([]int32, m))
	}
}

// partition groups the points by owning tile: after the call, segment t of
// tileIds/tileCells/tileXs/tileYs holds tile t's members in ascending id
// order — id, bucket, and position side by side. Two passes, both sharded
// over contiguous id ranges: count members per (shard, tile), prefix the
// counts into per-shard write bases (shard-major within each tile, which
// is what keeps ids ascending), then scatter. The scatter copies the
// bucket id and coordinates along with the id: the extra streaming writes
// buy the per-tile sort a fully sequential input and spare it every
// random gather from the id-indexed xs/ys/cellOf arrays — at large n
// those gathers, not the scatter, are what thrash the cache. This is also
// the ownership-handoff step of the tiled world: an agent that crossed a
// tile border during the step simply lands in its new owner's member list.
func (tl *Tiling) partition(cells []int32, xs, ys []float64) {
	n := len(cells)
	tl.ensureScratch(n)
	nsh := tl.nshards(n)
	nt := tl.NumTiles()
	// Clear every shard's counters up front: the chunking may leave the
	// last shard slots unvisited, and the merges below read all of them.
	tl.lastShards = nsh
	for s := 0; s < nsh; s++ {
		clear(tl.shardCounts[s])
		clear(tl.shardBuckets[s])
	}
	// The counting pass tallies both granularities in one sweep over
	// cells: per-tile counts feed the partition cursors, per-bucket counts
	// let the rebuild derive the CSR starts without ever re-reading the
	// partitioned records (both count arrays stay cache-resident).
	tl.pcells, tl.pxs, tl.pys = cells, xs, ys
	tl.parallelRanges(n, tl.countFn)
	// Exclusive prefix over (tile, shard): tileStarts[t] is the tile's
	// segment base, and each shard's cursor starts where the previous
	// shard's members of that tile end.
	pos := int32(0)
	for t := 0; t < nt; t++ {
		tl.tileStarts[t] = pos
		for s := 0; s < nsh; s++ {
			c := tl.shardCounts[s][t]
			tl.shardCounts[s][t] = pos
			pos += c
		}
	}
	tl.tileStarts[nt] = pos
	tl.parallelRanges(n, tl.scatterFn)
	tl.pcells, tl.pxs, tl.pys = nil, nil, nil
}

// countRange is partition's counting pass over one shard of pcells.
func (tl *Tiling) countRange(shard, lo, hi int) {
	tob := tl.tileOfBucket
	tiles := tl.shardCounts[shard]
	buckets := tl.shardBuckets[shard]
	for _, c := range tl.pcells[lo:hi] {
		tiles[tob[c]]++
		buckets[c]++
	}
}

// scatterRange is partition's scatter pass over one shard of pcells.
func (tl *Tiling) scatterRange(shard, lo, hi int) {
	tob := tl.tileOfBucket
	cells, xs, ys := tl.pcells, tl.pxs, tl.pys
	recs := tl.tileRecs
	cursor := tl.shardCounts[shard]
	for i := lo; i < hi; i++ {
		c := cells[i]
		t := tob[c]
		p := cursor[t]
		cursor[t] = p + 1
		recs[p] = tileRec{x: xs[i], y: ys[i], id: int32(i), cell: c}
	}
}

// rebuild is the tiled counting sort: it assumes ix.cellOf holds every
// point's bucket id and produces exactly the CSR state finishRebuild
// produces from the same classification. Phases: partition the points by
// tile (ids, buckets, and coordinates side by side — the same counting
// pass also tallies per-bucket occupancy); one sequential prefix sum over
// those tallies yields the global starts; per tile, stable-scatter ids
// AND bucket-major coordinates into the global CSR arrays in one pass
// over the tile's partition segment. The scatter is stable in id order
// (members are ascending per tile), so ids stay ascending within each
// bucket — the flat sort's invariant — and every bucket is settled.
func (tl *Tiling) rebuild() {
	ix := tl.ix
	tl.partition(ix.cellOf, ix.xs, ix.ys)
	// CSR starts come straight from the counting pass's per-bucket
	// tallies: one prefix sum over the (already cache-resident) count
	// arrays, no pass over the partitioned records.
	starts := ix.starts
	m := ix.cols * ix.cols
	starts[0] = 0
	if tl.lastShards == 1 {
		bkt := tl.shardBuckets[0]
		for c := 0; c < m; c++ {
			starts[c+1] = starts[c] + bkt[c]
		}
	} else {
		for c := 0; c < m; c++ {
			total := int32(0)
			for s := 0; s < tl.lastShards; s++ {
				total += tl.shardBuckets[s][c]
			}
			starts[c+1] = starts[c] + total
		}
	}
	tl.parallelRanges(tl.NumTiles(), tl.tilesFn)
	ix.markSettled()
}

// tileRange runs the per-tile scatter of rebuild for tiles [lo, hi).
func (tl *Tiling) tileRange(_, lo, hi int) {
	ix := tl.ix
	recs := tl.tileRecs
	ids := ix.ids
	cx, cy := ix.cx, ix.cy
	cols := ix.cols
	cursor := ix.cursor
	starts := ix.starts
	for t := lo; t < hi; t++ {
		x0, x1, y0, y1 := tl.TileBounds(t)
		// Tile-local cursor init: only the tile's own bucket runs are
		// touched (a few cache lines per row), never the whole array.
		for by := y0; by <= y1; by++ {
			base := by * cols
			copy(cursor[base+x0:base+x1+1], starts[base+x0:base+x1+1])
		}
		// Scatter ids and coordinates together out of the tile's
		// partition segment: sequential reads, and every write lands in
		// the tile's own CSR span window (n/K^2 entries of ids/cx/cy),
		// which stays cache-resident. No separate coordinate-fill pass —
		// the flat sort's id->xs/ys gather never happens.
		for j := tl.tileStarts[t]; j < tl.tileStarts[t+1]; j++ {
			r := &recs[j]
			p := cursor[r.cell]
			cursor[r.cell] = p + 1
			ids[p] = r.id
			cx[p] = r.x
			cy[p] = r.y
		}
	}
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
