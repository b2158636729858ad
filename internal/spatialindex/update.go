package spatialindex

import (
	"math/bits"
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

// eventOff holds the prefix offsets of one event bucket: where its
// arrivals start in moversByCell, and how far its start (and every
// non-event bucket up to the previous event) shifts in the new CSR.
type eventOff struct{ arrivals, shift int32 }

// ensureUpdate sizes the delta-update scratch buffers. The per-bucket
// counters and the event bitmap are allocated zero and kept zero between
// updates (an update resets exactly the buckets it touched), and the moved
// flags are reset surgically (movers only), so steady-state updates never
// clear a per-bucket or per-point array.
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
		ix.slab = make([]int32, 2*m)
		ix.ocount = ix.slab[0:m]
		ix.icount = ix.slab[m : 2*m]
		ix.evBits = make([]uint64, (m+63)/64)
		ix.startsAlt = make([]int32, m+1)
		ix.events = make([]int32, 0, m)
		ix.evOff = make([]eventOff, 0, m+1)
	}
}

// Update incrementally re-synchronizes the index with the flat coordinate
// slices after a simulation step, exploiting that agents move at most V
// per step and therefore mostly stay in their grid bucket. Point ids are
// the slice indices, exactly as in RebuildXY, and the post-state is
// bit-identical to RebuildXY(xs, ys): same starts offsets, same
// bucket-major ids (ascending within each bucket), same id-indexed view,
// and — once settled — the same CSR-ordered coordinates.
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
// The update runs in three steps:
//
//  1. Classify, in id order (pure streaming): each dirty point is
//     re-bucketed and compared against its stored bucket. Movers get a
//     moved flag plus an entry in the (id-ascending) mover list; their
//     departure and arrival counts accumulate per bucket, and both
//     buckets are marked in the event bitmap. The pass bails straight
//     into the counting sort if the mover count crosses
//     UpdateFallbackFraction. If nothing changed bucket, ids and starts
//     are already exact.
//
//  2. Bookkeeping, O(cells/64 + movers): one scan of the event bitmap
//     lists the event buckets (a departure or an arrival) in ascending
//     order with their prefix offsets — where their arrivals start, and
//     how far their starts shift — and resets their counters; one
//     stable scatter groups the movers by destination.
//
//  3. Patch ids and starts, in bucket order. Between two event buckets
//     every bucket keeps its exact id run, shifted by one constant
//     offset, so each such gap moves with a single copy between the
//     ping-ponged ids arrays and its new starts are the old ones plus
//     that offset. Only event buckets run the merge: departures drop on
//     a moved-flag test (a byte load from a cache-resident array, not a
//     position search) and arrivals interleave in ascending id order.
//     Every bucket's output span is fixed by the prefix offsets, so
//     contiguous bucket ranges are independent, and with a tiling
//     attached they are sharded over its workers.
//
// Update does not gather coordinates: every bucket is left pending (see
// the package comment), to be settled by the reader that needs it.
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
	maxMovers := int(UpdateFallbackFraction * float64(n))
	movers := ix.movers[:0]
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
			// movers are a small minority or we bail anyway).
			movers = tl.compareScan(cells, cellOf, movers)
			bailed = len(movers) > maxMovers
			if !bailed {
				for _, id := range movers {
					ix.noteMove(id, cellOf[id], cells[id])
				}
			}
		} else {
			cellOf := cellOf[:len(cells)]
			for i, c := range cells {
				if old := cellOf[i]; old != c {
					ix.noteMove(int32(i), old, c)
					movers = append(movers, int32(i))
					if len(movers) > maxMovers {
						bailed = true
						break
					}
				}
			}
		}
	} else {
		// cells is nil or holds exactly n ids, so the i < len(cells) test
		// is the nil test the compiler can also use as the bounds proof.
		cols32 := int32(cols)
		dirty := dirty[:n]
		for i, x := range xsn {
			if !dirty[i] {
				continue
			}
			var c int32
			if i < len(cells) {
				c = cells[i]
			} else {
				c = kernel.BucketOf(x, ysn[i], invR, cols32)
			}
			if old := cellOf[i]; old != c {
				ix.noteMove(int32(i), old, c)
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
			ix.moved[id] = false
		}
		ix.listEvents() // resets the counters and the event bitmap
		if dirty == nil {
			// cells is the fresh classification of every point.
			ix.rebuildCells(cells)
		} else {
			ix.rebuildOwned()
		}
		return
	}
	if len(movers) > 0 {
		ix.patch(movers)
	}
	ix.markPending()
}

// noteMove records that point id moved from bucket old to bucket c.
func (ix *Index) noteMove(id, old, c int32) {
	ix.cellOf[id] = c
	ix.moved[id] = true
	ix.ocount[old]++
	ix.icount[c]++
	ix.evBits[old>>6] |= 1 << uint(old&63)
	ix.evBits[c>>6] |= 1 << uint(c&63)
}

// listEvents turns the event bitmap into the ascending events list with
// its prefix offsets (plus the sentinel past the last event), points
// cursor[e] at each event's arrival offset, and resets the counters and
// bitmap words it visits: O(cells/64 + events).
func (ix *Index) listEvents() {
	events := ix.events[:0]
	evOff := ix.evOff[:0]
	ocount, icount, cursor := ix.ocount, ix.icount, ix.cursor
	var arrivals, shift int32
	for wi, w := range ix.evBits {
		if w == 0 {
			continue
		}
		ix.evBits[wi] = 0
		for ; w != 0; w &= w - 1 {
			e := int32(wi<<6 + bits.TrailingZeros64(w))
			in, out := icount[e], ocount[e]
			icount[e], ocount[e] = 0, 0
			events = append(events, e)
			evOff = append(evOff, eventOff{arrivals: arrivals, shift: shift})
			cursor[e] = arrivals
			arrivals += in
			shift += in - out
		}
	}
	ix.events = events
	ix.evOff = append(evOff, eventOff{arrivals: arrivals, shift: shift})
}

// patch runs the bookkeeping and the ids/starts patch for a non-empty,
// id-ascending mover list.
func (ix *Index) patch(movers []int32) {
	ix.listEvents()
	// Group movers by destination bucket with a stable scatter — movers
	// are already ascending by id, so each destination group stays
	// ascending. listEvents left each event's cursor at its group start.
	k := len(movers)
	if cap(ix.moversByCell) < k {
		ix.moversByCell = make([]int32, k)
	}
	mby := ix.moversByCell[:k]
	cellOf, cursor := ix.cellOf, ix.cursor
	for _, id := range movers {
		c := cellOf[id]
		mby[cursor[c]] = id
		cursor[c]++
	}
	ix.moversByCell = mby

	// Ping-pong first, so the patch reads the old CSR from the alternates
	// and writes the live arrays.
	ix.ids, ix.idsAlt = ix.idsAlt, ix.ids
	ix.starts, ix.startsAlt = ix.startsAlt, ix.starts
	m := ix.cols * ix.cols
	if tl := ix.tiling; tl != nil {
		tl.parallelRanges(m, tl.patchFn)
	} else {
		ix.patchRange(0, m)
	}
	for _, id := range movers {
		ix.moved[id] = false // surgical reset; no O(n) clear per step
	}
}

// patchRange runs the delta update's ids and starts patch over buckets
// [lo, hi), reading the pre-update CSR from idsAlt/startsAlt. The buckets
// between two event buckets kept their exact id runs, and the whole gap
// maps from its old span to its new span at one constant offset (the next
// event's shift), so it moves with a single copy and its new starts are
// the old ones plus that offset. Only event buckets run the merge: drop
// flagged departures, interleave the arrivals in ascending id order.
func (ix *Index) patchRange(lo, hi int) {
	oldStarts, newStarts := ix.startsAlt, ix.starts
	oldIds, newIds := ix.idsAlt, ix.ids
	mby, moved := ix.moversByCell, ix.moved
	events, evOff := ix.events, ix.evOff
	j, _ := slices.BinarySearch(events, int32(lo))
	next := lo // first bucket not yet written
	for ; j < len(events); j++ {
		e := int(events[j])
		if e >= hi {
			break
		}
		d := evOff[j].shift
		for c := next; c <= e; c++ {
			newStarts[c] = oldStarts[c] + d
		}
		copy(newIds[oldStarts[next]+d:oldStarts[e]+d], oldIds[oldStarts[next]:oldStarts[e]])
		w := oldStarts[e] + d
		mi, mHi := evOff[j].arrivals, evOff[j+1].arrivals
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
	// j is the first event at or past hi (or the sentinel), so its shift
	// is the one of the tail gap.
	d := evOff[j].shift
	for c := next; c < hi; c++ {
		newStarts[c] = oldStarts[c] + d
	}
	copy(newIds[oldStarts[next]+d:oldStarts[hi]+d], oldIds[oldStarts[next]:oldStarts[hi]])
	if hi == len(newStarts)-1 {
		newStarts[hi] = oldStarts[hi]
	}
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

// gatherRange refreshes the bucket-major coordinates of CSR range
// [lo, hi) from the id-indexed view: cx[k] = xs[ids[k]], cy[k] =
// ys[ids[k]]. The counting sort runs it over the whole CSR, and settling
// runs it over the spans of pending buckets. One sequential id stream
// drives two gathers per point with no data-dependent branches, so the
// loads pipeline.
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
