package spatialindex

import (
	"slices"

	"manhattanflood/internal/kernel"
	"manhattanflood/internal/panicsafe"
)

// UpdateFallbackFraction is the observed mover fraction above which one
// Update abandons the delta patch and falls back to the full
// counting-sort rebuild. Movers are points whose grid bucket changed
// since the last (re)build; an agent moves at most V per step against a
// bucket side of R, so roughly a V/R fraction of the moving agents
// crosses a boundary per step. This constant is a per-step safety net,
// not the delta/rebuild crossover: callers pick the path from the
// predicted mover fraction beforehand (sim's deltaUpdateMaxMoverFraction,
// 0.05, which sits at the crossover), and the bail only catches a step
// that observes far more movers than predicted, bounding what such a
// step can cost. Source for the crossover: the Update10k{None,Slow,Mid,
// Hot} benchmarks in this package (about 0%, 2.5%, 7.5% and 50% movers;
// Hot bails, so it prices the rebuild on moving data).
const UpdateFallbackFraction = 0.35

// ensureUpdate sizes the delta-update scratch buffers. The two cells-sized
// counter arrays live in one slab so the per-update reset is a single
// memclr; the moved flags are instead reset surgically (movers only), so
// steady-state updates never touch more than the points that changed.
func (ix *Index) ensureUpdate(n int) {
	m := ix.cols * ix.cols
	if cap(ix.idsAlt) < n {
		ix.idsAlt = make([]int32, n)
	}
	ix.idsAlt = ix.idsAlt[:n]
	if cap(ix.moved) < n {
		ix.moved = make([]bool, n)
	}
	// Invariant: every flag is false between updates — Update unsets
	// exactly the flags it set (including on the bail path), so regrowing
	// within capacity cannot expose stale flags.
	ix.moved = ix.moved[:n]
	if ix.slab == nil {
		ix.slab = make([]int32, 2*m+1)
		ix.ocount = ix.slab[0:m]
		ix.mstarts = ix.slab[m : 2*m+1]
		ix.startsAlt = make([]int32, m+1)
		ix.events = make([]int32, 0, m)
	}
}

// Update incrementally re-synchronizes the index with the flat coordinate
// slices after a simulation step, exploiting that agents move at most V
// per step and therefore mostly stay in their grid bucket. Point ids are
// the slice indices, exactly as in RebuildXY, and the post-state is
// bit-identical to RebuildXY(xs, ys): same starts offsets, same
// bucket-major ids (ascending within each bucket), same id-indexed and
// CSR-ordered coordinate views.
//
// Unlike RebuildXY, Update RETAINS xs and ys as the index's id-indexed
// coordinate view instead of copying them — the whole point of the delta
// path is to stop re-materializing arrays the simulation already owns. The
// caller must keep the slices unmodified until the next Update or Rebuild
// call; sim.World satisfies this naturally, since it mutates its position
// slices only inside Step, which ends by calling Update. Cold paths that
// need a stable snapshot keep using RebuildXY.
//
// dirty, when non-nil, must have len(xs) entries and flags the points
// whose coordinates may have changed since the last (re)build; points with
// a false flag are trusted to be exactly where the index last saw them and
// their bucket classification is skipped (sim.World sets these bits from
// the mobility layer, where a resting way-point agent publishes unchanged
// coordinates). A nil dirty treats every point as potentially moved.
//
// The patch is three passes:
//
//  1. Classify, in id order (pure streaming): each dirty point is
//     re-bucketed and compared against its stored bucket. Movers get a
//     moved flag plus an entry in the (id-ascending) mover list, and
//     per-bucket departure and arrival counts accumulate on the side.
//     The pass bails straight into the counting sort if the mover count
//     crosses UpdateFallbackFraction. If nothing changed bucket, ids and
//     starts are already exact and only the coordinate gather (pass 3)
//     runs.
//
//  2. Patch the ids, in bucket order. A fused prefix pass computes the
//     new starts, groups the movers by destination bucket, and lists the
//     event buckets (a departure or an arrival). Between two event
//     buckets every bucket keeps its exact id run, shifted by one
//     constant offset, so each such gap moves with a single copy between
//     the ping-ponged ids arrays. Only event buckets run the
//     merge: departures drop on a moved-flag test (a byte load from a
//     cache-resident array, not a position search) and arrivals
//     interleave in ascending id order.
//
//  3. Gather the coordinates: one branch-free pass over the new ids
//     refills the bucket-major cx/cy streams from xs/ys.
//
// Passes 2 and 3 run together per contiguous bucket range (patchRange):
// every bucket's output span is fixed by the new starts, so the ranges
// are independent, and with a tiling attached they are sharded over its
// workers, each gathering the coordinates of the ids it just wrote.
//
// A population-size change (len(xs) != Len()) degrades to a full rebuild
// of the given slices (still retained).
func (ix *Index) Update(xs, ys []float64, dirty []bool) {
	ix.updateImpl(xs, ys, dirty, nil)
}

// UpdateCells is Update with the classify pass already done: cells must
// hold the current bucket id of every point, exactly as ClassifyInto
// produces them (for points with a false dirty flag the stored
// classification is trusted instead, as in Update). This is the fused
// ingestion path of the SoA world step — the step loop classifies
// positions in the same streaming pass that advanced them and the index
// only compares ids. cells is read during the call and not retained;
// xs/ys are retained exactly as in Update.
func (ix *Index) UpdateCells(xs, ys []float64, cells []int32, dirty []bool) {
	if len(cells) != len(xs) {
		panic(panicsafe.Invariant("spatialindex", "cells disagree with points: len(cells)=%d len(xs)=%d", len(cells), len(xs)))
	}
	ix.updateImpl(xs, ys, dirty, cells)
}

func (ix *Index) updateImpl(xs, ys []float64, dirty []bool, cells []int32) {
	n := len(xs)
	if len(ys) != n {
		// Programmer-error panic: never recovered into a silent fallback
		// (see panicsafe's package comment).
		panic(panicsafe.Invariant("spatialindex", "coordinate slices disagree: len(xs)=%d len(ys)=%d", n, len(ys)))
	}
	if dirty != nil && len(dirty) != n {
		panic(panicsafe.Invariant("spatialindex", "dirty flags disagree with points: len(dirty)=%d len(xs)=%d", len(dirty), n))
	}
	if n != len(ix.ids) || n == 0 {
		// Population changed (or first build): there is no delta to exploit.
		ix.adopt(xs, ys)
		ix.rebuildOwned()
		return
	}

	ix.adopt(xs, ys)
	ix.ensureUpdate(n)
	m := ix.cols * ix.cols
	maxMovers := int(UpdateFallbackFraction * float64(n))
	movers := ix.movers[:0]
	clear(ix.slab) // ocount, mstarts
	ocount := ix.ocount
	mstarts := ix.mstarts
	moved := ix.moved
	cellOf := ix.cellOf[:n]
	invR := ix.invR
	cols := ix.cols
	bailed := false

	// Pass 1: classify in id order. The nil-dirty everyone-moves case is
	// one batched kernel classify (unless the caller already did it) plus
	// a sequential compare loop with no per-point flag loads; the
	// dirty-driven case stays scalar — with a sparse dirty set, touching
	// every lane just to reclassify a few would cost more than it saves.
	xsn := xs[:n]
	ysn := ys[:n]
	if dirty == nil {
		if cells == nil {
			if cap(ix.cellScratch) < n {
				ix.cellScratch = make([]int32, n)
			}
			cells = ix.cellScratch[:n]
			kernel.Buckets(cells, xsn, ysn, invR, int32(cols))
		}
		if tl := ix.tiling; tl != nil {
			// Tiled twist on pass 1: the compare scan — the only O(n) part —
			// runs sharded and side-effect free, and the per-bucket
			// bookkeeping replays over just the merged mover list (cheap:
			// movers are a small minority or we bail anyway). The bail can
			// reuse the fresh classification directly instead of
			// re-deriving it.
			movers = tl.compareScan(cells, cellOf, movers)
			ix.movers = movers
			if len(movers) > maxMovers {
				copy(cellOf, cells)
				tl.rebuild()
				return
			}
			for _, id := range movers {
				c := cells[id]
				old := cellOf[id]
				cellOf[id] = c
				moved[id] = true
				ocount[old]++
				mstarts[c+1]++
			}
		} else {
			for i, c := range cells {
				if old := cellOf[i]; old != c {
					cellOf[i] = c
					moved[i] = true
					ocount[old]++
					mstarts[c+1]++
					movers = append(movers, int32(i))
					if len(movers) > maxMovers {
						bailed = true
						break
					}
				}
			}
		}
	} else {
		cols32 := int32(cols)
		for i := range xsn {
			if !dirty[i] {
				continue
			}
			var c int32
			if cells != nil {
				c = cells[i]
			} else {
				c = kernel.BucketOf(xsn[i], ysn[i], invR, cols32)
			}
			if old := cellOf[i]; old != c {
				cellOf[i] = c
				moved[i] = true
				ocount[old]++
				mstarts[c+1]++
				movers = append(movers, int32(i))
				if len(movers) > maxMovers {
					bailed = true
					break
				}
			}
		}
	}
	ix.movers = movers
	if bailed {
		for _, id := range movers {
			moved[id] = false
		}
		ix.rebuildOwned()
		return
	}
	if len(movers) == 0 {
		// Nobody changed bucket: ids and starts are already exact; only the
		// CSR coordinate streams must be refreshed from the new positions.
		ix.gatherCSR()
		return
	}

	// Fused prefix pass: mover-in offsets, the new starts, and the
	// ascending list of event buckets (a departure or an arrival). Before
	// its prefix step, mstarts[c+1] still holds bucket c's arrival count.
	oldStarts := ix.starts
	newStarts := ix.startsAlt
	events := ix.events[:0]
	newStarts[0] = 0
	var mpos, npos int32
	for c := 0; c < m; c++ {
		in := mstarts[c+1]
		if in|ocount[c] != 0 {
			events = append(events, int32(c))
		}
		mpos += in
		mstarts[c+1] = mpos
		npos += oldStarts[c+1] - oldStarts[c] + in - ocount[c]
		newStarts[c+1] = npos
	}
	ix.events = events
	// Group movers by destination bucket with a stable scatter — movers
	// are already ascending by id, so each destination group stays
	// ascending.
	k := len(movers)
	if cap(ix.moversByCell) < k {
		ix.moversByCell = make([]int32, k)
	}
	mby := ix.moversByCell[:k]
	cursor := ix.cursor
	copy(cursor, mstarts[:m])
	for _, id := range movers {
		c := cellOf[id]
		mby[cursor[c]] = id
		cursor[c]++
	}

	// Passes 2 and 3 over bucket ranges. Ping-pong first, so the patch
	// reads the old CSR from the alternates and writes the live arrays.
	ix.ids, ix.idsAlt = ix.idsAlt, ix.ids
	ix.starts, ix.startsAlt = ix.startsAlt, ix.starts
	if tl := ix.tiling; tl != nil {
		tl.parallelRanges(m, tl.patchFn)
	} else {
		ix.patchRange(0, m)
	}
	for _, id := range movers {
		moved[id] = false // surgical reset; no O(n) clear per step
	}
}

// patchRange runs the delta update's ids patch and coordinate gather over
// buckets [lo, hi), reading the pre-update CSR from idsAlt/startsAlt.
// The buckets between two event buckets kept their exact id runs, and the
// whole gap maps from its old span to its new span at one constant
// offset, so it moves with a single copy. Only event buckets run the
// merge: drop flagged departures, interleave the arrivals in ascending id
// order. Then one branch-free gather refills the range's coordinates.
func (ix *Index) patchRange(lo, hi int) {
	oldStarts, newStarts := ix.startsAlt, ix.starts
	oldIds, newIds := ix.idsAlt, ix.ids
	mstarts, mby, moved := ix.mstarts, ix.moversByCell, ix.moved
	events := ix.events
	first, _ := slices.BinarySearch(events, int32(lo))
	next := lo // first bucket not yet written
	for _, e32 := range events[first:] {
		e := int(e32)
		if e >= hi {
			break
		}
		copy(newIds[newStarts[next]:newStarts[e]], oldIds[oldStarts[next]:oldStarts[e]])
		w := newStarts[e]
		mi, mHi := mstarts[e], mstarts[e+1]
		for _, id := range oldIds[oldStarts[e]:oldStarts[e+1]] {
			if moved[id] {
				continue
			}
			for mi < mHi && mby[mi] < id {
				newIds[w] = mby[mi]
				mi++
				w++
			}
			newIds[w] = id
			w++
		}
		for ; mi < mHi; mi++ {
			newIds[w] = mby[mi]
			w++
		}
		next = e + 1
	}
	copy(newIds[newStarts[next]:newStarts[hi]], oldIds[oldStarts[next]:oldStarts[hi]])
	ix.gatherRange(int(newStarts[lo]), int(newStarts[hi]))
}

// adopt installs xs and ys as the index's id-indexed coordinate view
// without copying. The slices are retained until the next Rebuild.
func (ix *Index) adopt(xs, ys []float64) {
	n := len(xs)
	ix.xs = xs
	ix.ys = ys
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

// gatherCSR runs gatherRange over the whole CSR, sharded over contiguous
// ranges on the tiling's workers when one is attached.
func (ix *Index) gatherCSR() {
	if tl := ix.tiling; tl != nil {
		tl.parallelRanges(len(ix.ids), tl.gatherFn)
		return
	}
	ix.gatherRange(0, len(ix.ids))
}

// gatherRange refreshes the bucket-major coordinates of CSR range
// [lo, hi) from the id-indexed view: cx[k] = xs[ids[k]], cy[k] =
// ys[ids[k]]. It is the one coordinate pass of every re-synchronization
// that keeps or patches ids — the flat counting sort and both
// delta-update outcomes; only the tiled rebuild scatters coordinates
// alongside its ids instead. One sequential id stream drives two gathers
// per point with no data-dependent branches, so the loads pipeline.
func (ix *Index) gatherRange(lo, hi int) {
	xs, ys := ix.xs, ix.ys
	ids := ix.ids[lo:hi]
	cx := ix.cx[lo:hi]
	cy := ix.cy[lo:hi]
	for k, id := range ids {
		cx[k] = xs[id]
		cy[k] = ys[id]
	}
}
