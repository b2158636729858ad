// Package spatialindex provides a uniform-grid point index over the square
// [0, L]^2 for fixed-radius neighbor queries — the inner loop of both the
// disk-graph construction and the flooding transmission step.
//
// The grid bucket side equals the query radius, so a radius query only has
// to scan the 3x3 block of buckets around the query point: O(number of
// neighbors) expected time under any bounded density.
//
// # CSR layout and coordinate slices
//
// The index stores the grid in compressed-sparse-row (CSR) form: one flat
// ids array holding every point id in bucket-major order plus an offsets
// array starts of length NumCells+1, so bucket c owns ids[starts[c] :
// starts[c+1]]. Rebuild is a two-pass counting sort into these reusable
// arrays — zero allocations per step once capacities are warm — and a
// bucket scan is one cache-linear slice walk instead of chasing
// bucket-of-slices pointers. Because buckets are numbered row-major, the
// three buckets of one row of a 3x3 query block are adjacent in the ids
// array; RowSpanBounds/BlockSpans expose each such row as a single
// contiguous span.
//
// Coordinates live in structure-of-arrays form throughout. RebuildXY
// ingests two flat float64 slices (sim.World's native layout; the
// []geom.Point Rebuild remains as a converting wrapper for cold paths) and
// maintains two parallel coordinate views:
//
//   - XS/YS: id-indexed copies, for point lookups by id;
//   - CSR: bucket-major copies parallel to the ids array, so a row-span
//     walk reads candidate coordinates as two sequential float64 streams —
//     no 16-byte Point gathers — and can reject on |dx| > r before ever
//     touching Y. This is the hot path of the flooding sweep and the disk
//     graph (halved memory traffic per candidate, and the layout a future
//     SIMD distance kernel would consume as-is).
//
// Rebuild copies the coordinates into internal buffers, so the index stays
// valid when the caller mutates or reuses its slices afterwards (sim.World
// rewrites its X/Y slices in place every step).
//
// # Delta maintenance
//
// Between consecutive simulation steps most points keep their bucket
// (agents move at most V per step against a bucket side of R), so a full
// counting sort re-derives mostly unchanged structure. Update (update.go)
// is the incremental path: it classifies each point as moved-in-place
// (CSR position untouched) or mover (bucket changed), and patches ids and
// starts from the per-bucket departure and arrival counts — one copy per
// run of buckets without movers, a merge only in the buckets a mover left
// or entered. Its bookkeeping costs O(cells/64 + movers), not O(cells).
// Unlike Rebuild it retains the caller's coordinate slices as the
// id-indexed view instead of copying them. The ids, starts and id-indexed
// view are bit-identical to a full RebuildXY, and the index falls back to
// the counting sort automatically when the moved fraction crosses
// UpdateFallbackFraction. sim.World.Step drives this path, feeding it
// per-agent dirty bits from the mobility layer.
//
// # Pending coordinates
//
// A delta sync does not refresh the bucket-major coordinates: after it,
// every bucket's cx/cy span is pending. A pending bucket is settled — its
// span gathered from the id-indexed view — by the first reader that needs
// it. The public readers (CSR, BlockSpans, Neighbors, CountNeighbors)
// settle every pending bucket before they read, so they return exactly
// the arrays a RebuildXY would. The flooding sweep instead calls SettleCSR
// with the buckets one round reads, which in the paper's Suburb phase is
// a few percent of the grid. Rebuilds leave every bucket settled.
//
// An intentionally naive O(n^2) reference implementation (Brute) backs the
// property tests.
package spatialindex

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/kernel"
	"manhattanflood/internal/panicsafe"
)

// Index is a uniform-grid fixed-radius neighbor index in CSR form.
// Re-synchronize it once per simulation step — with RebuildXY (or Rebuild)
// for a full counting sort, or Update for the delta patch. Queries may run
// concurrently with each other after the rebuild or update completes:
// the first one to find buckets pending settles them under a lock, and
// later ones see an atomic flag and read without locking. Queries must
// not overlap a rebuild or update.
type Index struct {
	side   float64
	radius float64
	invR   float64
	cols   int
	starts []int32 // bucket -> offset into ids; len cols*cols + 1
	ids    []int32 // point ids in bucket-major order, ascending per bucket
	cellOf []int32 // point id -> bucket
	cursor []int32 // counting-sort scratch
	// xs/ys are the current id-indexed coordinate view: the owned copies
	// (ownXs/ownYs) after a Rebuild, or the caller's retained slices after
	// an Update.
	xs, ys       []float64
	ownXs, ownYs []float64 // owned copy buffers for the Rebuild path
	cx, cy       []float64 // bucket-major coordinates, parallel to ids

	// Delta-update scratch (see Update in update.go). The per-bucket
	// counters and the event bitmap are zero between updates: an update
	// resets exactly the entries it touched.
	idsAlt       []int32    // ids-patch target, ping-ponged with ids
	startsAlt    []int32    // new offsets, ping-ponged with starts
	slab         []int32    // one backing for ocount/icount
	ocount       []int32    // per-bucket departure counts this update
	icount       []int32    // per-bucket arrival counts this update
	evBits       []uint64   // bit c: bucket c had a departure or arrival
	events       []int32    // event buckets, ascending
	evOff        []eventOff // per event, plus one sentinel past the last
	movers       []int32    // ids whose bucket changed, ascending
	moversByCell []int32    // movers grouped by destination, ascending ids
	moved        []bool     // id -> bucket changed this update (reset per update)
	cellScratch  []int32    // batched-classify target for nil-dirty updates

	// Pending coordinates: bit c of pending is set while bucket c's cx/cy
	// span is stale. settled is true when no bit is set, so readers skip
	// the lock; settleMu serializes the readers that settle.
	pending  []uint64
	settled  atomic.Bool
	settleMu sync.Mutex

	// tiling, when non-nil, shards the delta path and settling over its
	// workers (see EnableTiling in tiling.go). The resulting index state
	// is bit-identical either way.
	tiling *Tiling
}

// Span is one contiguous CSR range: parallel id and coordinate slices
// (XS[k], YS[k] are the coordinates of point IDs[k]).
type Span struct {
	IDs    []int32
	XS, YS []float64
}

// BucketRange is the half-open range [Lo, Hi) of bucket ids.
type BucketRange struct{ Lo, Hi int32 }

// MaxBuckets caps the bucket grid: New refuses a side/radius ratio whose
// ceil(side/radius)^2 grid exceeds it. Every per-bucket array is sized by
// the grid, so a tiny radius would otherwise allocate gigabytes (or fail
// in makeslice). The largest grid any configuration in this repository
// builds is about 2.5e5 buckets.
const MaxBuckets = 1 << 24

// GridBuckets returns the bucket count ceil(side/radius)^2 of an index
// over [0, side]^2 at the given radius, as a float so that absurd ratios
// do not overflow. Compare it against MaxBuckets.
func GridBuckets(side, radius float64) float64 {
	cols := math.Max(math.Ceil(side/radius), 1)
	return cols * cols
}

// New creates an index over [0, side]^2 for neighbor queries at the given
// radius. It returns an error when the grid would exceed MaxBuckets.
func New(side, radius float64) (*Index, error) {
	if side <= 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		return nil, fmt.Errorf("spatialindex: side must be positive and finite, got %v", side)
	}
	if radius <= 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("spatialindex: radius must be positive and finite, got %v", radius)
	}
	if b := GridBuckets(side, radius); b > MaxBuckets {
		return nil, fmt.Errorf("spatialindex: side/radius = %v needs %.4g buckets, over the cap of %d", side/radius, b, MaxBuckets)
	}
	cols := int(math.Ceil(side / radius))
	if cols < 1 {
		cols = 1
	}
	m := cols * cols
	return &Index{
		side:    side,
		radius:  radius,
		invR:    1 / radius,
		cols:    cols,
		starts:  make([]int32, m+1),
		cursor:  make([]int32, m),
		pending: make([]uint64, (m+63)/64),
	}, nil
}

// Radius returns the query radius the index was built for.
func (ix *Index) Radius() float64 { return ix.radius }

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.ids) }

// Cols returns the number of grid buckets per side.
func (ix *Index) Cols() int { return ix.cols }

// NumCells returns the total number of grid buckets, Cols^2.
func (ix *Index) NumCells() int { return ix.cols * ix.cols }

// ensure sizes the per-point arrays for n points without allocating in the
// steady state, and installs the owned coordinate buffers as the current
// view (the Rebuild path copies into them).
func (ix *Index) ensure(n int) {
	if cap(ix.ownXs) < n {
		ix.ownXs = make([]float64, n)
		ix.ownYs = make([]float64, n)
	}
	ix.ownXs = ix.ownXs[:n]
	ix.ownYs = ix.ownYs[:n]
	ix.xs = ix.ownXs
	ix.ys = ix.ownYs
	if cap(ix.cellOf) < n {
		ix.cellOf = make([]int32, n)
		ix.ids = make([]int32, n)
		ix.cx = make([]float64, n)
		ix.cy = make([]float64, n)
	}
	ix.cellOf = ix.cellOf[:n]
	ix.ids = ix.ids[:n]
	ix.cx = ix.cx[:n]
	ix.cy = ix.cy[:n]
}

// RebuildXY re-populates the index from flat coordinate slices via a
// two-pass counting sort. Point ids are the slice indices; xs and ys must
// have equal length. Both slices are copied, not retained: the caller may
// mutate or reuse them immediately, and previously built queries against
// this index stay consistent until the next rebuild.
func (ix *Index) RebuildXY(xs, ys []float64) {
	n := len(xs)
	if len(ys) != n {
		// Programmer-error panic: never recovered into a silent fallback
		// (see panicsafe's package comment).
		panic(panicsafe.Invariant("spatialindex", "coordinate slices disagree: len(xs)=%d len(ys)=%d", n, len(ys)))
	}
	ix.ensure(n)
	copy(ix.xs, xs)
	copy(ix.ys, ys)
	ix.rebuildOwned()
}

// ClassifyInto fills cells[i] with the bucket id of (xs[i], ys[i]) using
// the batched kernel classify — the same mapping every other path uses.
// cells must have len(xs) entries. This is the fused advance→classify
// hook: sim.World classifies positions straight out of the mobility
// step's flat slices and hands the precomputed ids to RebuildXYCells or
// UpdateCells, so the index never re-derives them point by point.
func (ix *Index) ClassifyInto(cells []int32, xs, ys []float64) {
	if len(cells) != len(xs) {
		panic(panicsafe.Invariant("spatialindex", "cells disagree with points: len(cells)=%d len(xs)=%d", len(cells), len(xs)))
	}
	kernel.Buckets(cells, xs, ys, ix.invR, int32(ix.cols))
}

// RebuildXYCells is RebuildXY with the classify pass already done: cells
// must hold the bucket id of every point, exactly as ClassifyInto
// produces them. The coordinates are copied, not retained; cells is
// consumed during the call and not retained either.
func (ix *Index) RebuildXYCells(xs, ys []float64, cells []int32) {
	n := len(xs)
	if len(ys) != n {
		panic(panicsafe.Invariant("spatialindex", "coordinate slices disagree: len(xs)=%d len(ys)=%d", n, len(ys)))
	}
	if len(cells) != n {
		panic(panicsafe.Invariant("spatialindex", "cells disagree with points: len(cells)=%d len(xs)=%d", len(cells), n))
	}
	ix.ensure(n)
	copy(ix.xs, xs)
	copy(ix.ys, ys)
	ix.rebuildCells(cells)
}

// Rebuild re-populates the index with pts. It is the []geom.Point
// compatibility wrapper around RebuildXY; like it, Rebuild copies the
// coordinates and does not retain pts.
func (ix *Index) Rebuild(pts []geom.Point) {
	n := len(pts)
	ix.ensure(n)
	for i, p := range pts {
		ix.xs[i] = p.X
		ix.ys[i] = p.Y
	}
	ix.rebuildOwned()
}

// rebuildOwned runs the counting sort over the current id-indexed view
// (the owned copies, or slices retained by Update's fallback path). The
// classify pass is one batched kernel call straight into cellOf.
func (ix *Index) rebuildOwned() {
	ix.ClassifyInto(ix.cellOf, ix.xs, ix.ys)
	ix.countingSort()
}

// rebuildCells runs the counting sort from a classification the caller
// already holds (RebuildXYCells, and Update's bails with the fresh
// classification of every point): cells is adopted, not re-derived.
func (ix *Index) rebuildCells(cells []int32) {
	copy(ix.cellOf, cells)
	ix.countingSort()
}

// countingSort is the one rebuild body, flat or tiled: with cellOf
// holding every point's bucket, it counts the buckets into starts,
// prefix-sums them, scatters the ids stably, and fills the CSR
// coordinates with one sequential pass, which leaves every bucket
// settled.
func (ix *Index) countingSort() {
	starts := ix.starts
	clear(starts)
	for _, c := range ix.cellOf {
		starts[c+1]++
	}
	m := ix.cols * ix.cols
	for c := 0; c < m; c++ {
		starts[c+1] += starts[c]
	}
	cursor := ix.cursor
	copy(cursor, starts[:m])
	// Stable scatter: ids stay ascending within each bucket. Only the 4-byte
	// ids are scattered (small random-write working set); the bucket-major
	// coordinate copies are then filled by a sequential pass, which keeps the
	// write streams linear and turns the coordinate movement into overlapping
	// 8-byte gathers.
	for i, c := range ix.cellOf {
		ix.ids[cursor[c]] = int32(i)
		cursor[c]++
	}
	ix.gatherRange(0, len(ix.ids))
	ix.markSettled()
}

// XS returns the index's id-ordered X-coordinate view. The slice is
// read-only and valid until the next rebuild or update; after an Update it
// aliases the caller's coordinate slice rather than a copy.
func (ix *Index) XS() []float64 { return ix.xs }

// YS returns the index's id-ordered Y-coordinate view.
func (ix *Index) YS() []float64 { return ix.ys }

// CSR returns the raw bucket-major arrays: ids plus the parallel
// coordinate copies (xs[k], ys[k] belong to point ids[k]), settling every
// pending bucket first. All three slices are read-only and valid only
// until the next rebuild or update — Update ping-pongs the ids array and
// leaves the coordinate streams pending, so a held slice goes stale (or
// silently inconsistent) the moment the index is re-synchronized.
func (ix *Index) CSR() (ids []int32, xs, ys []float64) {
	ix.settleAll()
	return ix.ids, ix.cx, ix.cy
}

// SettleCSR settles the buckets in need and returns the CSR arrays. Only
// the ids, and the coordinates of the buckets in need or settled earlier
// since the last sync, are valid; any other coordinate may be stale. This
// is the flooding sweep's reader: it settles the buckets one round reads,
// where CSR settles the whole grid. Validity and concurrency are as for
// CSR.
func (ix *Index) SettleCSR(need []BucketRange) (ids []int32, xs, ys []float64) {
	if !ix.settled.Load() {
		ix.settleMu.Lock()
		for _, r := range need {
			ix.settleBuckets(int(r.Lo), int(r.Hi))
		}
		ix.settleMu.Unlock()
	}
	return ix.ids, ix.cx, ix.cy
}

// settleAll settles every pending bucket, once per sync: concurrent
// callers serialize on settleMu, and the winner publishes settled.
func (ix *Index) settleAll() {
	if ix.settled.Load() {
		return
	}
	ix.settleMu.Lock()
	defer ix.settleMu.Unlock()
	if ix.settled.Load() {
		return
	}
	if tl := ix.tiling; tl != nil {
		tl.parallelRanges(len(ix.pending), tl.settleFn)
	} else {
		ix.settleWords(0, len(ix.pending))
	}
	ix.settled.Store(true)
}

// settleWords settles the pending buckets of bitmap words [w0, w1). Shards
// of disjoint word ranges touch disjoint bits and CSR spans.
func (ix *Index) settleWords(w0, w1 int) {
	ix.settleBuckets(w0<<6, min(w1<<6, ix.cols*ix.cols))
}

// settleBuckets gathers the coordinates of the pending buckets in [lo, hi)
// and clears their bits. Adjacent pending buckets share one gather.
func (ix *Index) settleBuckets(lo, hi int) {
	pending, starts := ix.pending, ix.starts
	for b := lo; b < hi; {
		w := pending[b>>6] >> uint(b&63)
		if w == 0 {
			b = (b | 63) + 1
			continue
		}
		b += bits.TrailingZeros64(w)
		if b >= hi {
			return
		}
		s := b
		for b < hi && pending[b>>6]&(1<<uint(b&63)) != 0 {
			pending[b>>6] &^= 1 << uint(b&63)
			b++
		}
		ix.gatherRange(int(starts[s]), int(starts[b]))
	}
}

// markPending flags every bucket's coordinates stale (after a delta sync).
func (ix *Index) markPending() {
	for i := range ix.pending {
		ix.pending[i] = ^uint64(0)
	}
	ix.settled.Store(false)
}

// markSettled records that every bucket's coordinates are current (after
// a rebuild).
func (ix *Index) markSettled() {
	clear(ix.pending)
	ix.settled.Store(true)
}

// Cell returns the bucket holding point id.
func (ix *Index) Cell(id int) int { return int(ix.cellOf[id]) }

// bucketOfXY is the scalar classify path; the batched paths and every
// consumer share the kernel's definition, so a point always lands in
// the same bucket no matter which path classified it.
func (ix *Index) bucketOfXY(x, y float64) int {
	return int(kernel.BucketOf(x, y, ix.invR, int32(ix.cols)))
}

// blockBounds clips the 3x3 block around bucket coordinates (cx, cy) to
// the grid.
func (ix *Index) blockBounds(cx, cy int) (x0, x1, y0, y1 int) {
	x0, x1 = cx-1, cx+1
	if x0 < 0 {
		x0 = 0
	}
	if x1 >= ix.cols {
		x1 = ix.cols - 1
	}
	y0, y1 = cy-1, cy+1
	if y0 < 0 {
		y0 = 0
	}
	if y1 >= ix.cols {
		y1 = ix.cols - 1
	}
	return x0, x1, y0, y1
}

// BlockBoundsXY returns the inclusive bucket-coordinate bounds [x0, x1] x
// [y0, y1] of the 3x3 bucket block around (x, y), clipped to the grid.
func (ix *Index) BlockBoundsXY(x, y float64) (x0, x1, y0, y1 int) {
	cols := int32(ix.cols)
	cx := int(kernel.BucketCoord(x, ix.invR, cols))
	cy := int(kernel.BucketCoord(y, ix.invR, cols))
	return ix.blockBounds(cx, cy)
}

// BlockBoundsCell returns the inclusive bucket-coordinate bounds of the
// 3x3 block around bucket c, clipped to the grid — the hoisted form the
// bucket-major flood sweep shares with every point-query consumer.
func (ix *Index) BlockBoundsCell(c int) (x0, x1, y0, y1 int) {
	return ix.blockBounds(c%ix.cols, c/ix.cols)
}

// RowSpanBounds returns the half-open [lo, hi) offsets into the CSR arrays
// covering buckets (x0..x1, by) — adjacent buckets of a grid row are
// adjacent in the arrays.
func (ix *Index) RowSpanBounds(by, x0, x1 int) (lo, hi int32) {
	return ix.starts[by*ix.cols+x0], ix.starts[by*ix.cols+x1+1]
}

// CellSpanBounds returns the half-open [lo, hi) offsets into the CSR
// arrays of bucket c's own points.
func (ix *Index) CellSpanBounds(c int) (lo, hi int32) {
	return ix.starts[c], ix.starts[c+1]
}

// BlockSpans fills spans with up to three contiguous CSR ranges (ids plus
// parallel coordinates) covering the 3x3 bucket block around (x, y) and
// returns the number of spans. This is the closure-free fast path: callers
// stream the flat coordinate slices, branch on |dx| before touching Y, and
// apply their own distance filter — no Point loads, no per-candidate
// function calls. Like CSR, it settles pending buckets first.
func (ix *Index) BlockSpans(x, y float64, spans *[3]Span) int {
	ix.settleAll()
	x0, x1, y0, y1 := ix.BlockBoundsXY(x, y)
	nr := 0
	for by := y0; by <= y1; by++ {
		lo, hi := ix.RowSpanBounds(by, x0, x1)
		if lo < hi {
			spans[nr] = Span{IDs: ix.ids[lo:hi], XS: ix.cx[lo:hi], YS: ix.cy[lo:hi]}
			nr++
		}
	}
	return nr
}

// Neighbors returns the ids of all indexed points within the index radius
// of q, excluding the point with id exclude (pass -1 to keep all). The
// result is appended to dst to allow allocation reuse.
func (ix *Index) Neighbors(q geom.Point, exclude int, dst []int) []int {
	r2 := ix.radius * ix.radius
	var spans [3]Span
	nr := ix.BlockSpans(q.X, q.Y, &spans)
	for ri := 0; ri < nr; ri++ {
		s := spans[ri]
		kernel.VisitHits(s.XS, s.YS, q.X, q.Y, r2, nil, 0, func(k int) bool {
			if int(s.IDs[k]) != exclude {
				dst = append(dst, int(s.IDs[k]))
			}
			return true
		})
	}
	return dst
}

// CountNeighbors returns the number of indexed points within the radius of
// q, excluding the point with id exclude (pass -1 to keep all).
func (ix *Index) CountNeighbors(q geom.Point, exclude int) int {
	r2 := ix.radius * ix.radius
	var spans [3]Span
	nr := ix.BlockSpans(q.X, q.Y, &spans)
	n := 0
	for ri := 0; ri < nr; ri++ {
		s := spans[ri]
		kernel.VisitHits(s.XS, s.YS, q.X, q.Y, r2, nil, 0, func(k int) bool {
			if int(s.IDs[k]) != exclude {
				n++
			}
			return true
		})
	}
	return n
}

// Brute is the O(n^2) reference neighbor finder used to validate Index in
// the property tests.
type Brute struct {
	pts    []geom.Point
	radius float64
}

// NewBrute creates a brute-force reference index.
func NewBrute(radius float64) *Brute { return &Brute{radius: radius} }

// Rebuild re-populates the reference index. Like Index.Rebuild it copies
// pts.
func (b *Brute) Rebuild(pts []geom.Point) { b.pts = append(b.pts[:0], pts...) }

// Neighbors returns all point ids within the radius of q, excluding
// exclude.
func (b *Brute) Neighbors(q geom.Point, exclude int) []int {
	r2 := b.radius * b.radius
	var out []int
	for i, p := range b.pts {
		if i == exclude {
			continue
		}
		if p.Dist2(q) <= r2 {
			out = append(out, i)
		}
	}
	return out
}
