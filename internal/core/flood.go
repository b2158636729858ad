// Package core implements the paper's subject: the flooding process over a
// MANET and the measurement of its flooding time, with zone-resolved
// (Central Zone vs Suburb) completion tracking, the cell-level "informed
// cell" view used by Theorem 10, and gossip-style protocol variants for
// ablation.
//
// The flooding mechanism is the paper's verbatim rule: an agent informed at
// step t transmits at every subsequent step; a non-informed agent becomes
// informed at step t iff some agent informed before t is within the
// transmission radius R at step t.
//
// # Frontier engine
//
// Flooding.Step is frontier-based rather than a full O(n) rescan. The
// engine keeps the uninformed agents as an explicit id list plus a
// per-bucket uninformed-occupancy count, and sweeps candidates in CSR
// bucket order: a bucket with no uninformed occupant is skipped with one
// counter load, and for the rest the 3x3 block geometry — block bounds,
// the three contiguous row spans, and the row-level occupancy skip (a grid
// row whose occupants are all uninformed cannot contain a transmitter) —
// is hoisted and computed once per bucket, since every candidate of a
// bucket shares it. The distance tests themselves go through the batched
// internal/kernel radius kernel (AVX2 where available, bit-identical
// pure-Go fallback elsewhere): per candidate and row span the kernel masks
// the structure-of-arrays coordinate streams four lanes at a time and
// folds the mask against an informed-by-CSR-position bitmap, so "does this
// candidate hear a transmitter" is a vector compare plus a word AND. No
// 16-byte geom.Point is ever loaded in the inner loop. In the paper's
// second phase (Theorem 3's Suburb phase, when almost every agent is
// informed) a step costs O(cells + #uninformed * blocksize), not O(n).
//
// A round runs in two halves around the index's pending coordinates (a
// delta sync leaves the bucket-major coordinate streams stale until
// settled): plan picks the buckets to evaluate from the occupancy counts
// alone and lists the buckets they will read, Step settles exactly those
// through spatialindex.Index.SettleCSR, and eval runs the distance tests.
// So the sync never pays an O(n) coordinate gather for agents no round
// looks at.
//
// The ids that hear a transmitter are collected in bucket-major order —
// deterministic, though not ascending; all downstream state (informed
// flags, counts, series, zone tracking) is order-independent.
//
// The world's shape picks how the sweep runs. A flat world sweeps every
// bucket in one pass on the stepping goroutine; there, sim.Params.Workers
// parallelizes agent stepping only. On a tiled world (sim.Params.Tiles,
// spatialindex.Tiling) the sweep shards by tile over the tiling's
// workers: each tile sweeps its own bucket rectangle —
// reading its neighbors' border rows (the "ghost spans") straight out of
// the shared CSR, which tile handoff keeps bit-identical to the flat
// index — and a per-tile uninformed-occupancy counter skips fully
// informed tiles wholesale, before any per-bucket load. Per-tile hit
// buffers record a per-row offset table, and the merge concatenates the
// row fragments in global bucket-row order, so the merged hit list is
// bit-identical — same ids in the same order — to the flat sweep at any
// tile count and worker count.
//
// The WithinStepChaining ablation is a BFS from the step's newly informed
// frontier instead of repeated full rescans: each dequeued agent scans its
// 3x3 block for uninformed neighbors, informs them, and enqueues them. The
// block scan feeds each row span to the kernel with the per-step
// uninformed bitmap (buildUninfBits) as the filter: the saturated interior
// behind the epidemic wave costs a few zero-window loads per row, sparse
// fronts fall back to per-set-bit scalar tests, and dense fronts pay one
// vector mask folded word-by-word against the bitmap. The
// fixed point is the same epidemic closure the naive iteration computes,
// with each agent processed once.
//
// # Radius lanes
//
// Step is the world's step plus Round, the transmission round. A flood
// runs over the index it was built on: the world's own, or one bound to
// the world at another radius (OnIndex, sim.World.BindIndex). Lanes
// drives several such floods over one world — the radii of one r-sweep
// trial, which share their trajectory — stepping the world once per time
// unit and giving each unfinished flood its round.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/kernel"
	"manhattanflood/internal/panicsafe"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/spatialindex"
)

// Flooding runs the paper's flooding protocol over a sim.World.
type Flooding struct {
	w *sim.World
	// ix is the bound index the flood runs over (OnIndex); nil runs it
	// over the world's own index, read afresh every round. shared marks a
	// flood whose world other floods use too (a bound index, or a flood
	// handed to NewLanes): its Lanes steps the world, Step and Run refuse.
	ix           *spatialindex.Index
	shared       bool
	informed     []bool
	uninformed   []int32 // ids of uninformed agents, ascending
	count        int
	source       int
	chainWithin  bool
	part         *cells.Partition
	czTime       int // first step with every CZ cell informed; -1 until then
	series       []int
	recordSeries bool

	newlyInformed []int32                    // scratch: ids informed by this step's round, bucket-major (deterministic, not sorted)
	bucketUninf   []int32                    // scratch: per-bucket uninformed occupancy
	plans         []bucketPlan               // scratch: the flat round's planned buckets
	need          []spatialindex.BucketRange // scratch: the flat round's settle set
	queue         []int32                    // scratch: chaining BFS queue
	uninfBits     []uint64                   // scratch: uninformed-by-CSR-position bitmap (chaining closure)

	// Tiled sweep state (sweepTiled; worlds with sim.Params.Tiles): the
	// per-tile uninformed and informed occupancies drive the two
	// whole-tile skips — a fully informed tile has no candidates, and a
	// tile whose 9-tile neighborhood holds no informed agent has no
	// transmitter in range of any of its buckets' blocks — the per-tile
	// plans and settle sets carry the planning pass to the evaluation
	// pass, and the per-tile hit buffers plus their per-row offset tables
	// let the merge rebuild the flat sweep's exact bucket-major hit order.
	tileUninf  []int32
	tileInf    []int32
	tilePlans  [][]bucketPlan
	tileNeed   [][]spatialindex.BucketRange
	tileShards [][]int32
	tileRowOff [][]int32

	// Per-pass inputs for the per-tile bodies (planOneTile, evalOneTile,
	// tileNoTransmitter). Methods plus scratch fields instead of per-call
	// closures: a closure handed to a worker goroutine escapes and costs an
	// allocation per step.
	swIx     *spatialindex.Index
	swTl     *spatialindex.Tiling
	swCols   int
	swIds    []int32
	swX, swY []float64

	// fresh holds the ids informed during the previous Step (sweep hits
	// plus chained-in agents; the source after a reset): what
	// LastStepNewlyInformed and the step observer report.
	fresh []int32

	// fan runs the tiled sweep's workers and forwards their panics onto
	// the stepping goroutine, where the trial runner's recover can turn
	// them into structured per-trial errors instead of a process crash. A
	// field, with its pass bodies built once in NewFlooding and its
	// per-call inputs in the sw* fields, so the tiled path stays
	// allocation-free in the steady state.
	fan    panicsafe.Fanout
	planFn func(shard, lo, hi int)
	evalFn func(shard, lo, hi int)

	// observer, when set (WithStepObserver), is invoked by Run/RunContext
	// after every completed flooding step with the ids informed during
	// that step. See the option for the full contract. obsStarted records
	// that the run-start frame (the source as the sole fresh agent) has
	// been emitted, so a continued RunContext does not replay it.
	observer   func(newly []int32) error
	obsStarted bool
}

// FloodOption customizes a Flooding run.
type FloodOption func(*Flooding)

// WithinStepChaining enables the epidemic ablation: information relays
// through chains of agents within a single step (newly informed agents
// transmit immediately). The paper's protocol is strictly one hop per step;
// chaining bounds how much the one-hop rule costs.
func WithinStepChaining(on bool) FloodOption {
	return func(f *Flooding) { f.chainWithin = on }
}

// WithPartition attaches a cell partition so the run tracks the first time
// every Central Zone cell is informed (a cell is informed when every agent
// currently inside it is informed, Theorem 10's notion).
func WithPartition(p *cells.Partition) FloodOption {
	return func(f *Flooding) { f.part = p }
}

// WithSeries records the informed-agent count after every step,
// retrievable via Series.
func WithSeries(on bool) FloodOption {
	return func(f *Flooding) { f.recordSeries = on }
}

// WithStepObserver registers fn to be invoked by Run/RunContext after
// every completed flooding step (world advance + transmission round +
// chaining closure), with the ids informed during that step in their
// deterministic discovery order — sweep hits in bucket-major order, then
// chained-in agents in BFS order. The slice is reused by the next step;
// observers must not retain it. A non-nil error aborts the run at that
// step boundary: RunContext returns the partial Result together with the
// observer's error, leaving the flooding state consistent (the step that
// was observed has fully happened). This is the recording seam the public
// trace recorder hangs off; it deliberately fires per completed step, not
// inside the sweep, so the zero-allocation inner loops stay untouched.
func WithStepObserver(fn func(newly []int32) error) FloodOption {
	return func(f *Flooding) { f.observer = fn }
}

// OnIndex runs the flood over ix, an index bound to its world at another
// radius (sim.World.BindIndex), instead of the world's own index. The
// world is then shared with the floods of the other radii, so this flood
// never steps it: Step and Run refuse it, and a Lanes drives its rounds.
func OnIndex(ix *spatialindex.Index) FloodOption {
	return func(f *Flooding) { f.ix = ix }
}

// NewFlooding creates a flooding process over w with the given source
// agent, which is the only informed agent at time 0.
func NewFlooding(w *sim.World, source int, opts ...FloodOption) (*Flooding, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil world")
	}
	if source < 0 || source >= w.N() {
		return nil, fmt.Errorf("core: source %d out of range [0, %d)", source, w.N())
	}
	f := &Flooding{
		w:          w,
		informed:   make([]bool, w.N()),
		uninformed: make([]int32, 0, w.N()-1),
		fresh:      make([]int32, 0, w.N()),
	}
	f.planFn = f.planTileRange
	f.evalFn = f.evalTileRange
	for _, o := range opts {
		o(f)
	}
	if f.ix != nil {
		if f.ix.Len() != w.N() {
			return nil, fmt.Errorf("core: index holds %d points, world has %d agents", f.ix.Len(), w.N())
		}
		f.shared = true
	}
	if f.chainWithin {
		f.uninfBits = make([]uint64, (w.N()+63)/64)
	}
	f.reset(source)
	return f, nil
}

// Reset restarts the flooding process from scratch with the given source,
// reusing every internal buffer: only that agent is informed, the series
// restarts, and zone tracking re-arms. It is the pooling companion of
// sim.World.Reset — call it after resetting (or otherwise re-preparing)
// the world, and the pair behaves bit-identically to a freshly constructed
// World + Flooding. The option set (chaining, partition, series) carries
// over from construction.
func (f *Flooding) Reset(source int) error {
	if source < 0 || source >= f.w.N() {
		return fmt.Errorf("core: source %d out of range [0, %d)", source, f.w.N())
	}
	f.reset(source)
	return nil
}

func (f *Flooding) reset(source int) {
	clear(f.informed)
	f.informed[source] = true
	f.source = source
	f.count = 1
	f.czTime = -1
	f.uninformed = f.uninformed[:0]
	for i := 0; i < f.w.N(); i++ {
		if i != source {
			f.uninformed = append(f.uninformed, int32(i))
		}
	}
	f.series = f.series[:0]
	if f.recordSeries {
		f.series = append(f.series, 1)
	}
	f.fresh = append(f.fresh[:0], int32(source))
	f.obsStarted = false
	f.updateCZ()
}

// Source returns the source agent id.
func (f *Flooding) Source() int { return f.source }

// InformedCount returns the current number of informed agents.
func (f *Flooding) InformedCount() int { return f.count }

// IsInformed reports whether agent i is informed.
func (f *Flooding) IsInformed(i int) bool { return f.informed[i] }

// Informed returns the live informed-flags slice, indexed by agent id. It
// is owned by the flooding process and rewritten by Step/Reset; callers
// must treat it as read-only and must not retain it across steps. It
// exists so per-step observers (WithStepObserver) can expose the informed
// set without an O(n) copy per step.
func (f *Flooding) Informed() []bool { return f.informed }

// LastStepNewlyInformed returns the ids informed during the most recent
// Step — sweep hits in bucket-major order, then chained-in agents in BFS
// order (exactly the order WithStepObserver sees). The slice is reused by
// the next Step; callers must not retain it. After Reset it holds only
// the source.
func (f *Flooding) LastStepNewlyInformed() []int32 { return f.fresh }

// Done reports whether every agent is informed.
func (f *Flooding) Done() bool { return f.count == f.w.N() }

// Series returns the informed-count time series (index = step), if enabled.
func (f *Flooding) Series() []int { return f.series }

// CZInformedTime returns the first step at which every Central Zone cell
// was informed, or -1 if that has not happened (or no partition was
// attached).
func (f *Flooding) CZInformedTime() int { return f.czTime }

// Step advances the world one time unit and performs one transmission
// round (Round). It returns the number of newly informed agents. A flood
// on a shared world (OnIndex, NewLanes) panics here: stepping the world
// would move it under the other floods between their rounds.
func (f *Flooding) Step() int {
	if f.shared {
		panic(panicsafe.Invariant("core", "a flood on a shared world is stepped by its Lanes, not by Step"))
	}
	f.w.Step()
	return f.Round()
}

// index returns the index the flood runs over: the bound one, or the
// world's own.
func (f *Flooding) index() *spatialindex.Index {
	if f.ix != nil {
		return f.ix
	}
	return f.w.Index()
}

// Round performs one transmission round over the world's current
// positions, without advancing the world: every uninformed agent within R
// of an agent informed before this round becomes informed. It returns the
// number of newly informed agents. Step is the world's step plus Round;
// Lanes calls Round once per world step for each of its floods.
func (f *Flooding) Round() int {
	ix := f.index()

	// Per-bucket uninformed occupancy: a bucket row whose population is
	// entirely uninformed cannot contain a transmitter.
	if len(f.bucketUninf) != ix.NumCells() {
		f.bucketUninf = make([]int32, ix.NumCells())
	} else {
		clear(f.bucketUninf)
	}
	for _, i := range f.uninformed {
		f.bucketUninf[ix.Cell(int(i))]++
	}

	f.newlyInformed = f.newlyInformed[:0]
	if tiling := ix.Tiling(); tiling != nil {
		f.sweepTiled(ix, tiling)
	} else {
		f.plans, f.need = f.plan(ix, 0, ix.NumCells(), f.plans[:0], f.need[:0])
		ids, cxs, cys := ix.SettleCSR(f.need)
		f.newlyInformed = f.eval(ix, ids, cxs, cys, f.plans, f.newlyInformed)
	}
	f.fresh = append(f.fresh[:0], f.newlyInformed...)
	for _, i := range f.newlyInformed {
		f.informed[i] = true
	}
	f.count += len(f.newlyInformed)
	newly := len(f.newlyInformed)

	if f.chainWithin && newly > 0 {
		newly += f.chainClosure(ix)
	}

	if newly > 0 {
		f.compactUninformed()
	}
	if f.recordSeries {
		f.series = append(f.series, f.count)
	}
	f.updateCZ()
	return newly
}

// transMajorFactor selects the sweep's per-bucket evaluation strategy:
// transmitter-major coverage when the block holds at most this many
// transmitters per candidate (each transmitter then costs one MaskWord
// over the bucket's candidate window, and the scan stops as soon as the
// accumulated masks cover the uninformed word), candidate-major
// otherwise (each candidate folds the kernel's row-span masks against
// per-bucket transmitter windows — the regime of a lone straggler
// surrounded by a saturated block). Both strategies evaluate the
// identical predicate, so the choice never changes the result.
const transMajorFactor = 3

// rowWindowWords bounds the per-row transmitter windows of the
// candidate-major path: 4 words = 256 lanes per 3-bucket row span.
// Pathologically denser rows fall back to transmitter-major coverage,
// which chunks arbitrary spans.
const rowWindowWords = 4

// sparseWndPop is the per-window cutoff below which the candidate-major
// fold tests transmitter lanes one by one instead of masking the whole
// 64-lane chunk.
const sparseWndPop = 8

// bucketPlan is one bucket the round evaluates: a bucket with an
// uninformed occupant and at least one transmitter row in its 3x3 block.
// It carries what the planning pass derived from the occupancy counts —
// the transmitter rows as CSR spans, their transmitter total, and whether
// every row fits the candidate-major windows — to the evaluation pass.
type bucketPlan struct {
	c, nrows, trans int32
	fits            bool
	rowLo, rowHi    [3]int32
}

// plan is the first half of one transmission round over buckets [c0, c1):
// it appends a bucketPlan for every bucket eval must visit, and the
// buckets eval will read — each planned bucket and its transmitter rows —
// to need, for the index to settle. It reads only the occupancy counts
// and the CSR starts, never a coordinate or an informed flag, so tiles may
// run it concurrently over disjoint bucket ranges.
//
// Iterating candidates bucket by bucket instead of down the uninformed id
// list is what makes the round cheap: every candidate in a bucket shares
// the same 3x3 block, so the block bounds, the three row spans and the
// per-row occupancy skip are computed once per bucket instead of once per
// candidate, and a bucket with no uninformed occupant is skipped with a
// single counter load.
func (f *Flooding) plan(ix *spatialindex.Index, c0, c1 int, plans []bucketPlan,
	need []spatialindex.BucketRange) ([]bucketPlan, []spatialindex.BucketRange) {
	cols := ix.Cols()
	bucketUninf := f.bucketUninf
	for c := c0; c < c1; c++ {
		if bucketUninf[c] == 0 {
			continue
		}
		// Rows without a transmitter are dropped outright (a row whose
		// occupants are all uninformed cannot inform anyone), and the
		// surviving transmitter count — derived from the occupancy
		// arrays alone, no flag loads — picks eval's strategy.
		x0, x1, y0, y1 := ix.BlockBoundsCell(c)
		p := bucketPlan{c: int32(c), fits: true}
		ownRow := false
		for yy := y0; yy <= y1; yy++ {
			rlo, rhi := ix.RowSpanBounds(yy, x0, x1)
			if rlo == rhi {
				continue
			}
			uninf := int32(0)
			base := yy * cols
			for xx := x0; xx <= x1; xx++ {
				uninf += bucketUninf[base+xx]
			}
			t := (rhi - rlo) - uninf
			if t == 0 {
				continue
			}
			if rhi-rlo > rowWindowWords*64 {
				p.fits = false
			}
			p.rowLo[p.nrows], p.rowHi[p.nrows] = rlo, rhi
			p.nrows++
			p.trans += t
			need = append(need, spatialindex.BucketRange{Lo: int32(base + x0), Hi: int32(base + x1 + 1)})
			ownRow = ownRow || base == c-c%cols
		}
		if p.nrows == 0 {
			continue
		}
		if !ownRow {
			need = append(need, spatialindex.BucketRange{Lo: int32(c), Hi: int32(c + 1)})
		}
		plans = append(plans, p)
	}
	return plans, need
}

// eval is the second half of the round: it evaluates the planned buckets
// in order, appending the ids that hear a transmitter to dst in CSR
// (bucket-major) order. ids/cxs/cys are the CSR arrays with every bucket
// of the plans' settle set settled. It only reads shared state, so tiles
// may run it concurrently over disjoint plans.
func (f *Flooding) eval(ix *spatialindex.Index, ids []int32, cxs, cys []float64,
	plans []bucketPlan, dst []int32) []int32 {
	r := ix.Radius()
	r2 := r * r
	informed := f.informed
	var twnd [3][rowWindowWords]uint64
	for pi := range plans {
		p := &plans[pi]
		lo, hi := ix.CellSpanBounds(int(p.c))
		nu := f.bucketUninf[p.c]
		nrows := int(p.nrows)
		rowLo, rowHi := &p.rowLo, &p.rowHi
		if p.trans <= transMajorFactor*nu || !p.fits {
			// Transmitter-major coverage: one kernel MaskWord per
			// transmitter tests the bucket's whole candidate window at
			// once; the masks accumulate into heard until they cover
			// the uninformed word, at which point no further
			// transmitter can change anything. The OR is
			// order-independent, so the early exit keeps the result
			// bit-identical to an exhaustive scan.
			for w0 := lo; w0 < hi; w0 += 64 {
				w1 := w0 + 64
				if w1 > hi {
					w1 = hi
				}
				var want uint64
				for k := w0; k < w1; k++ {
					if !informed[ids[k]] {
						want |= 1 << uint(k-w0)
					}
				}
				if want == 0 {
					continue
				}
				cwx := cxs[w0:w1:w1]
				cwy := cys[w0:w1:w1]
				var heard uint64
			scan:
				for ri := 0; ri < nrows; ri++ {
					for k := rowLo[ri]; k < rowHi[ri]; k++ {
						if informed[ids[k]] {
							heard |= kernel.MaskWord(cwx, cwy, cxs[k], cys[k], r2)
							if heard&want == want {
								break scan
							}
						}
					}
				}
				for hw := heard & want; hw != 0; {
					k := w0 + int32(bits.TrailingZeros64(hw))
					hw &= hw - 1
					dst = append(dst, ids[k])
				}
			}
			continue
		}

		// Candidate-major: per-row transmitter windows (bit j of a
		// window: row lane j is informed) are built lazily, on the
		// first candidate that reaches the row — a bucket whose
		// candidates all resolve in the first row never pays for the
		// others. Each candidate then folds kernel masks against them:
		// a zero window skips a 64-lane chunk with one load, a sparse
		// window tests its transmitter lanes one by one, and a dense
		// window pays one MaskWord and a single AND.
		var built [3]bool
		for k := lo; k < hi; k++ {
			id := ids[k]
			if informed[id] {
				continue
			}
			px, py := cxs[k], cys[k]
			found := false
			for ri := 0; ri < nrows && !found; ri++ {
				rlo, rhi := rowLo[ri], rowHi[ri]
				nw := int(rhi-rlo+63) >> 6
				if !built[ri] {
					built[ri] = true
					for j := 0; j < nw; j++ {
						k0 := rlo + int32(j)<<6
						k1 := k0 + 64
						if k1 > rhi {
							k1 = rhi
						}
						var w uint64
						for k := k0; k < k1; k++ {
							if informed[ids[k]] {
								w |= 1 << uint(k-k0)
							}
						}
						twnd[ri][j] = w
					}
				}
				for j := 0; j < nw && !found; j++ {
					wnd := twnd[ri][j]
					if wnd == 0 {
						continue
					}
					k0 := rlo + int32(j)<<6
					k1 := k0 + 64
					if k1 > rhi {
						k1 = rhi
					}
					if bits.OnesCount64(wnd) < sparseWndPop {
						for w := wnd; w != 0; {
							t := k0 + int32(bits.TrailingZeros64(w))
							w &= w - 1
							if kernel.Hit(cxs[t], cys[t], px, py, r2) {
								found = true
								break
							}
						}
					} else {
						found = kernel.MaskWord(cxs[k0:k1:k1], cys[k0:k1:k1], px, py, r2)&wnd != 0
					}
				}
			}
			if found {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// sweepTiled runs the transmission round tile by tile on a tiled world,
// in three passes. Tiles plan their own bucket rectangles in parallel —
// candidates near a tile edge plan their neighbors' border rows (the
// ghost spans) too — and a tile whose uninformed occupancy is zero is
// skipped before a single bucket counter is loaded; in the paper's Suburb
// phase, when whole regions are saturated, that eliminates most of the
// grid per round. The stepping goroutine then settles every tile's settle
// set: no tile may settle, because the rows it reads belong to its
// neighbors too. Last, the tiles evaluate their plans in parallel; each
// appends hits to its own buffer and records where every bucket row's
// hits start, and the merge then concatenates the row fragments in global
// bucket-row order — tile columns left to right within each row — which
// is exactly the flat sweep's bucket-major order, so the hit list (ids
// AND order) is bit-identical to the untiled sweep.
func (f *Flooding) sweepTiled(ix *spatialindex.Index, tl *spatialindex.Tiling) {
	nt := tl.NumTiles()
	k := tl.K()
	cols := ix.Cols()
	if len(f.tileUninf) != nt {
		f.tileUninf = make([]int32, nt)
		f.tileInf = make([]int32, nt)
	}
	// Per-tile uninformed occupancy summed from the bucket counters
	// (O(buckets) sequential adds — cheaper than a TileOfBucket lookup per
	// uninformed agent, which is O(n) while the flood is young) and
	// informed occupancy = CSR row-span occupancy - uninformed (O(K*cols),
	// not O(n)). They drive the whole-tile skips in planOneTile.
	for t := 0; t < nt; t++ {
		x0, x1, y0, y1 := tl.TileBounds(t)
		occ, uninf := int32(0), int32(0)
		for by := y0; by <= y1; by++ {
			lo, hi := ix.RowSpanBounds(by, x0, x1)
			occ += hi - lo
			for _, u := range f.bucketUninf[by*cols+x0 : by*cols+x1+1] {
				uninf += u
			}
		}
		f.tileUninf[t] = uninf
		f.tileInf[t] = occ - uninf
	}
	if len(f.tileShards) < nt {
		grow := nt - len(f.tileShards)
		f.tilePlans = append(f.tilePlans, make([][]bucketPlan, grow)...)
		f.tileNeed = append(f.tileNeed, make([][]spatialindex.BucketRange, grow)...)
		f.tileShards = append(f.tileShards, make([][]int32, grow)...)
		f.tileRowOff = append(f.tileRowOff, make([][]int32, grow)...)
	}
	f.swIx, f.swTl, f.swCols = ix, tl, cols
	f.fan.Run(tl.Workers(), nt, f.planFn)
	for t := 0; t < nt; t++ {
		f.swIds, f.swX, f.swY = ix.SettleCSR(f.tileNeed[t])
	}
	f.fan.Run(tl.Workers(), nt, f.evalFn)
	f.swIx, f.swTl = nil, nil
	f.swIds, f.swX, f.swY = nil, nil, nil
	// Bucket-major merge: for every global bucket row, append each tile
	// column's fragment of that row, left to right.
	f.mergeTileRows(tl, cols, k)
}

// planTileRange plans tiles [lo, hi) for sweepTiled.
func (f *Flooding) planTileRange(_, lo, hi int) {
	for t := lo; t < hi; t++ {
		f.planOneTile(t)
	}
}

// evalTileRange evaluates tiles [lo, hi) for sweepTiled.
func (f *Flooding) evalTileRange(_, lo, hi int) {
	for t := lo; t < hi; t++ {
		f.evalOneTile(t)
	}
}

// tileNoTransmitter reports whether tile t's 9-tile neighborhood holds no
// informed agent. Every bucket's 3x3 block reaches at most one bucket
// beyond the tile rectangle — inside the adjacent tiles — so a zero
// neighborhood means no transmitter is in range of any candidate in t:
// the whole tile is ahead of the flooding frontier and can be skipped
// without loading a single bucket counter. This is the skip the flat
// sweep cannot afford per bucket (it would re-derive transmitter
// presence 3x3 buckets at a time); amortized over a tile it is nine
// counter loads for ~cols^2/K^2 buckets.
func (f *Flooding) tileNoTransmitter(t int) bool {
	k := f.swTl.K()
	tx, ty := t%k, t/k
	for yy := ty - 1; yy <= ty+1; yy++ {
		if yy < 0 || yy >= k {
			continue
		}
		for xx := tx - 1; xx <= tx+1; xx++ {
			if xx < 0 || xx >= k {
				continue
			}
			if f.tileInf[yy*k+xx] > 0 {
				return false
			}
		}
	}
	return true
}

// planOneTile plans tile t's bucket rows into its plan list and settle
// set. A fully informed tile (no candidates) or one fully ahead of the
// frontier (no transmitter in range) plans nothing: no hits can originate
// there. Inputs travel through swIx/swTl/swCols (see those fields).
func (f *Flooding) planOneTile(t int) {
	ix, tl, cols := f.swIx, f.swTl, f.swCols
	plans := f.tilePlans[t][:0]
	need := f.tileNeed[t][:0]
	if f.tileUninf[t] != 0 && !f.tileNoTransmitter(t) {
		x0, x1, y0, y1 := tl.TileBounds(t)
		for by := y0; by <= y1; by++ {
			plans, need = f.plan(ix, by*cols+x0, by*cols+x1+1, plans, need)
		}
	}
	f.tilePlans[t] = plans
	f.tileNeed[t] = need
}

// evalOneTile evaluates tile t's plans into its hit buffer, recording
// where each bucket row's hits start so the merge stays uniform.
func (f *Flooding) evalOneTile(t int) {
	ix, tl, cols := f.swIx, f.swTl, f.swCols
	plans := f.tilePlans[t]
	dst := f.tileShards[t][:0]
	off := f.tileRowOff[t][:0]
	_, x1, y0, y1 := tl.TileBounds(t)
	for by := y0; by <= y1; by++ {
		off = append(off, int32(len(dst)))
		end := 0
		for end < len(plans) && int(plans[end].c) <= by*cols+x1 {
			end++
		}
		dst = f.eval(ix, f.swIds, f.swX, f.swY, plans[:end], dst)
		plans = plans[end:]
	}
	off = append(off, int32(len(dst)))
	f.tileShards[t] = dst
	f.tileRowOff[t] = off
}

// mergeTileRows concatenates the per-tile row fragments in global
// bucket-major order into newlyInformed.
func (f *Flooding) mergeTileRows(tl *spatialindex.Tiling, cols, k int) {
	for by := 0; by < cols; by++ {
		ty := tl.TileOfBucket(by*cols) / k
		for tx := 0; tx < k; tx++ {
			t := ty*k + tx
			_, _, y0, _ := tl.TileBounds(t)
			off := f.tileRowOff[t]
			r := by - y0
			f.newlyInformed = append(f.newlyInformed, f.tileShards[t][off[r]:off[r+1]]...)
		}
	}
}

// buildUninfBits fills the closure's uninformed bitmap: bit k is set iff
// the agent at CSR position k is currently uninformed. One sequential pass
// over the ids array (the informed flags fit in cache), run once per
// chained step; the closure then visits candidates by iterating set bits,
// so the saturated interior behind the epidemic wave costs a handful of
// zero-word loads instead of a per-occupant flag check.
func (f *Flooding) buildUninfBits(ids []int32) []uint64 {
	nw := (len(ids) + 63) / 64
	if cap(f.uninfBits) < nw {
		f.uninfBits = make([]uint64, nw)
	}
	words := f.uninfBits[:nw]
	clear(words)
	informed := f.informed
	for k, id := range ids {
		if !informed[id] {
			words[k>>6] |= 1 << (k & 63)
		}
	}
	f.uninfBits = words
	return words
}

// chainBlockScan visits every uninformed candidate in the 3x3 block around
// (px, py), in ascending CSR position order, and calls visit(k) for each
// candidate within r2. Each block row is one kernel span: the uninformed
// bitmap is the kernel's filter, so zero windows (the saturated interior)
// cost no floating-point work at all, sparse windows fall back to the
// per-set-bit scalar test, and the mixed wave front pays one vector mask
// folded word-by-word against the bitmap. visit may clear bits of
// positions it has been called for (the closure does) — the kernel
// snapshots filter windows before iterating, so the scan never observes
// its own clears. visit must return true to continue.
func chainBlockScan(ix *spatialindex.Index, words []uint64,
	cxs, cys []float64, px, py, r2 float64, visit func(k int) bool) {
	x0, x1, y0, y1 := ix.BlockBoundsXY(px, py)
	for by := y0; by <= y1; by++ {
		lo, hi := ix.RowSpanBounds(by, x0, x1)
		if lo >= hi {
			continue
		}
		kernel.VisitHits(cxs[lo:hi], cys[lo:hi], px, py, r2, words, int(lo), visit)
	}
}

// chainClosure computes the within-step epidemic closure from the step's
// newly informed frontier, returning how many agents were chained in. The
// fixed point equals the naive repeat-until-no-change closure.
func (f *Flooding) chainClosure(ix *spatialindex.Index) int {
	r := ix.Radius()
	r2 := r * r
	xs, ys := ix.XS(), ix.YS()
	ids, cxs, cys := ix.CSR()
	words := f.buildUninfBits(ids)
	informed := f.informed
	queue := append(f.queue[:0], f.newlyInformed...)
	frontier := len(queue)
	for qi := 0; qi < len(queue); qi++ {
		j := queue[qi]
		chainBlockScan(ix, words, cxs, cys, xs[j], ys[j], r2, func(k int) bool {
			id := ids[k]
			informed[id] = true
			words[k>>6] &^= 1 << (uint(k) & 63)
			queue = append(queue, id)
			return true
		})
	}
	chained := len(queue) - frontier
	f.fresh = append(f.fresh, queue[frontier:]...)
	f.queue = queue
	f.count += chained
	return chained
}

// compactUninformed drops newly informed ids from the uninformed list,
// preserving ascending order.
func (f *Flooding) compactUninformed() {
	keep := f.uninformed[:0]
	for _, i := range f.uninformed {
		if !f.informed[i] {
			keep = append(keep, i)
		}
	}
	f.uninformed = keep
}

// updateCZ records the first step at which every Central Zone cell is
// informed (contains no uninformed agent). Only the uninformed list is
// scanned, so the check is O(#uninformed).
func (f *Flooding) updateCZ() {
	if f.part == nil || f.czTime >= 0 {
		return
	}
	xs, ys := f.w.X(), f.w.Y()
	for _, i := range f.uninformed {
		if f.part.IsCentralPoint(geom.Point{X: xs[i], Y: ys[i]}) {
			return
		}
	}
	f.czTime = f.w.Time()
}

// Result summarizes a completed (or truncated) flooding run.
type Result struct {
	// Completed reports whether every agent was informed within the budget.
	Completed bool
	// Time is the flooding time (steps until all informed); when not
	// Completed it holds the step budget that was exhausted.
	Time int
	// CZTime is the first step with all Central Zone cells informed
	// (-1 when unknown or no partition was attached).
	CZTime int
	// SuburbLag is Time - CZTime when both are known, else -1. It is the
	// paper's "second phase": the extra time the sparse Suburb needs after
	// the Central Zone is saturated, bounded by O(S/v) in Theorem 3.
	SuburbLag int
	// Informed is the number of informed agents at the end.
	Informed int
	// N is the total number of agents.
	N int
}

// Run steps the flooding process until every agent is informed or maxSteps
// steps have elapsed.
func (f *Flooding) Run(maxSteps int) (Result, error) {
	return f.RunContext(nil, maxSteps)
}

// RunContext is Run with cooperative cancellation: the context is checked
// once per flooding step — between steps, never inside the zero-allocation
// sweep loops — and on cancellation the partial Result (Completed false,
// informed count so far) is returned together with the context's error.
// The flooding state is left consistent, so the run can even be continued
// with another RunContext call. A nil context never cancels (Run).
func (f *Flooding) RunContext(ctx context.Context, maxSteps int) (Result, error) {
	if maxSteps < 0 {
		return Result{}, fmt.Errorf("core: negative step budget %d", maxSteps)
	}
	if f.shared {
		return Result{}, fmt.Errorf("core: a flood on a shared world is run by its Lanes")
	}
	var err error
	// Run-start frame: before any stepping, fresh holds exactly the source,
	// so the observer sees the initial informed set and the pre-run world
	// time. Emitted once per Reset, not per RunContext call, so continuing
	// a partial run does not duplicate it.
	if f.observer != nil && !f.obsStarted {
		f.obsStarted = true
		if oerr := f.observer(f.fresh); oerr != nil {
			return Result{
				Completed: f.Done(),
				Time:      f.w.Time(),
				CZTime:    f.czTime,
				SuburbLag: -1,
				Informed:  f.count,
				N:         f.w.N(),
			}, oerr
		}
	}
	deadline := f.w.Time() + maxSteps
	for !f.Done() && f.w.Time() < deadline {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
				break
			}
		}
		f.Step()
		if f.observer != nil {
			if oerr := f.observer(f.fresh); oerr != nil {
				err = oerr
				break
			}
		}
	}
	return f.Result(), err
}

// Result summarizes the flood at the world's current time: the flooding
// time if every agent is informed, else the steps taken so far.
func (f *Flooding) Result() Result {
	res := Result{
		Completed: f.Done(),
		Time:      f.w.Time(),
		CZTime:    f.czTime,
		SuburbLag: -1,
		Informed:  f.count,
		N:         f.w.N(),
	}
	if res.Completed && f.czTime >= 0 {
		res.SuburbLag = res.Time - f.czTime
	}
	return res
}

// SourcePair returns two deterministic source choices in w: the agent
// nearest the square's center (a Central Zone source) and the agent
// nearest the origin (a south-west Suburb corner source). Theorem 3's
// proof distinguishes exactly these two cases.
func SourcePair(w *sim.World) (central, suburb int) {
	l := w.Params().L
	central = w.NearestAgent(geom.Pt(l/2, l/2))
	suburb = w.NearestAgent(geom.Pt(0, 0))
	return central, suburb
}

// MeetingRadius returns the paper's meeting radius (3/4)R used in Lemma 16:
// two agents "meet" when within (3/4)R, which guarantees an information
// hand-off within the following time unit under the speed bound Ineq. 8.
func MeetingRadius(r float64) float64 { return 0.75 * r }

// TheoreticalMinSteps returns ceil(d / v), the minimum number of steps for
// information to physically traverse distance d when carried by agents of
// speed v with zero transmission range — a crude sanity floor used in
// tests.
func TheoreticalMinSteps(d, v float64) int {
	if v <= 0 {
		return math.MaxInt
	}
	return int(math.Ceil(d / v))
}
