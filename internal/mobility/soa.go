package mobility

// Structure-of-arrays populations: the batched form of the five mobility
// models. Each population stores every mutable kinematic quantity in a
// flat slice indexed by agent — trip progress, the current-leg cache,
// unit directions, pause clocks — while positions live canonically in the
// bound View's X/Y slices. StepRange is a line-for-line port of the
// corresponding Agent.Step operating on slice elements: the same geom
// calls, the same operation order, the same RNG draw sequence, so SoA
// trajectories are bit-identical to AoS trajectories by construction (and
// by the soatest differential harness, which checks exactly that).
//
// No column holds a pointer the population owns: the per-agent RNG
// streams are the rand.Source values InitAgent was handed (sim.World
// hands out pointers into one by-value []rand.PCG slab), and the two
// L-path populations keep a trip as a few flat columns (tripCols) rather
// than a geom.CompiledPath per agent.
//
// Initialization draws are not duplicated at all: InitAgent calls the
// model's drawInit helper, the same function the AoS NewAgent consumes.

import (
	"math"
	"math/rand/v2"

	"manhattanflood/internal/dist"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/panicsafe"
)

// popBase carries the state every population shares: the bound view and
// the per-agent RNG streams. Positions live in the view, not here.
type popBase struct {
	view View
	rngs []rand.Source
}

func newPopBase(n int) popBase { return popBase{rngs: make([]rand.Source, n)} }

func (p *popBase) Len() int { return len(p.rngs) }

// Bind implements Population.
func (p *popBase) Bind(v View) {
	if len(v.X) != len(p.rngs) || len(v.Y) != len(p.rngs) {
		panic(panicsafe.Invariant("mobility", "Bind: view slices %d/%d do not match population size %d",
			len(v.X), len(v.Y), len(p.rngs)))
	}
	p.view = v
}

// publish scatters (x, y) into slot i and marks it dirty, exactly like
// slotSink.publish for a bound agent (Dirty store first, store-only).
func (p *popBase) publish(i int, x, y float64) {
	if p.view.Dirty != nil {
		p.view.Dirty[i] = true
	}
	p.view.X[i] = x
	p.view.Y[i] = y
}

// markDirty sets the dirty bits of slots [lo, hi) in one pass. A
// population whose every agent publishes on every step stores its
// positions straight into the view and calls it once after the loop, in
// place of a per-agent Dirty test and store.
func (p *popBase) markDirty(lo, hi int) {
	if p.view.Dirty == nil {
		return
	}
	d := p.view.Dirty[lo:hi]
	for i := range d {
		d[i] = true
	}
}

// ---------------------------------------------------------------------------
// Trip columns

// floatColumns carves k float64 columns of length n out of one
// allocation, each starting one cache line further into a 4 KiB page than
// the one before. Equal-size columns allocated one by one start at the
// same page offset, so a loop touching slot i of each of them hits a
// single L1 set once per column (4K aliasing); with ten such columns
// World.Reset at n = 2000 ran about 15% slower on a 2-vCPU Xeon. Each
// column's capacity runs to the next column's start, so the capacities
// sum to the allocation.
func floatColumns(n, k int) [][]float64 {
	const pageFloats, lineFloats = 512, 8
	stride := (n+pageFloats-1)/pageFloats*pageFloats + lineFloats
	slab := make([]float64, k*stride)
	cols := make([][]float64, k)
	for c := range cols {
		cols[c] = slab[c*stride : c*stride+n : (c+1)*stride]
	}
	return cols
}

// tripCols are the per-agent trip columns of the two L-path populations
// (mrwpPop, pausedPop), kept in place of a geom.CompiledPath per agent.
//
// The hot step reads only travelled and the current-leg cache: for a
// distance d on the cached leg the position is
// (legBX, legBY) + (d - legS) * (legDX, legDY), bit-identical to
// CompiledPath.At, and legT is the trip's TotalLen. A corner crossing or
// an arrival also reads the destination and the two leg headings. From
// them it rebuilds everything the exact loop asks of the trip: FirstLen
// (legE on a cached first leg, legS on a cached second leg), the corner
// and the second leg's direction (crossCorner), and the HeadingAt and
// HeadingInto answers (trip). A fresh trip is written straight into the
// columns (setTrip, or start for a trip placed mid-way); nothing compiles
// or copies a whole path.
//
// Which leg the corner itself belongs to is the population's convention
// (moveTo); a cached first leg always has positive length.
type tripCols struct {
	travelled    []float64
	legS, legE   []float64
	legT         []float64
	legBX, legBY []float64
	legDX, legDY []float64
	dstX, dstY   []float64
	leg1, leg2   []geom.Heading
}

func newTripCols(n int) tripCols {
	c := floatColumns(n, 10)
	return tripCols{
		travelled: c[0],
		legS:      c[1], legE: c[2], legT: c[3],
		legBX: c[4], legBY: c[5],
		legDX: c[6], legDY: c[7],
		dstX: c[8], dstY: c[9],
		leg1: make([]geom.Heading, n),
		leg2: make([]geom.Heading, n),
	}
}

// setTrip installs trip lp in slot i at its start, with the geometry
// geom.Compile derives written straight into the columns. The cache holds
// the first leg, or the second when the first has length 0. The caller
// sets the progress (moveTo).
func (t *tripCols) setTrip(i int, lp geom.LPath) {
	corner := lp.Corner()
	h1, h2 := geom.HeadingOf(lp.Src, corner), geom.HeadingOf(corner, lp.Dst)
	total := lp.Src.ManhattanDist(lp.Dst)
	t.legT[i] = total
	t.dstX[i], t.dstY[i] = lp.Dst.X, lp.Dst.Y
	t.leg1[i], t.leg2[i] = h1, h2
	t.legS[i] = 0
	if h1 != geom.HeadingNone {
		t.legE[i] = lp.Src.ManhattanDist(corner)
		t.legBX[i], t.legBY[i] = lp.Src.X, lp.Src.Y
		t.legDX[i], t.legDY[i] = h1.Dir()
	} else {
		t.legE[i] = total
		t.legBX[i], t.legBY[i] = corner.X, corner.Y
		t.legDX[i], t.legDY[i] = h2.Dir()
	}
}

// start installs trip lp in slot i at progress d and returns
// CompiledPath.At(d): exactly what setTrip followed by moveTo(i, d,
// cornerOnSecond) writes and returns, computed without a data-dependent
// branch. Both legs' caches are built and the one holding d is picked with
// bit masks, so a fresh stationary trip costs no mispredicted branch on
// which leg it is on. The cases that take either corner convention or a
// clamp — a first leg of length 0 (Src == Dst included), d exactly on the
// corner, and d rounded up to the whole length — are rare for stationary
// draws and go to setTrip and moveTo behind one predictable branch.
func (t *tripCols) start(i int, lp geom.LPath, d float64, cornerOnSecond bool) geom.Point {
	src, dst := lp.Src, lp.Dst
	vf := mask(lp.Order == geom.VerticalFirst)
	corner := geom.Point{X: pick(vf, src.X, dst.X), Y: pick(vf, dst.Y, src.Y)}
	firstLen, total := src.ManhattanDist(corner), src.ManhattanDist(dst)
	if firstLen == 0 || d == firstLen || d >= total {
		t.setTrip(i, lp)
		return t.moveTo(i, d, cornerOnSecond)
	}
	h1, h2 := geom.HeadingOf(src, corner), geom.HeadingOf(corner, dst)
	second := mask(d > firstLen)
	legS := pick(second, firstLen, 0)
	bx, by := pick(second, corner.X, src.X), pick(second, corner.Y, src.Y)
	dx, dy := (h1 ^ (h1^h2)&geom.Heading(second)).Dir()
	t.travelled[i] = d
	t.legT[i] = total
	t.dstX[i], t.dstY[i] = dst.X, dst.Y
	t.leg1[i], t.leg2[i] = h1, h2
	t.legS[i], t.legE[i] = legS, pick(second, total, firstLen)
	t.legBX[i], t.legBY[i] = bx, by
	t.legDX[i], t.legDY[i] = dx, dy
	u := d - legS
	return geom.Point{X: bx + u*dx, Y: by + u*dy}
}

// mask returns all ones when c holds, else zero.
func mask(c bool) uint64 {
	var m uint64
	if c {
		m = 1
	}
	return -m
}

// pick returns a when m is all ones and b when m is zero.
func pick(m uint64, a, b float64) float64 {
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	return math.Float64frombits(bb ^ (ab^bb)&m)
}

// onFirstLeg reports whether slot i's cache holds the first leg: a cached
// second leg starts at FirstLen, which is 0 only for a first leg of length
// 0, and that has no heading.
func (t *tripCols) onFirstLeg(i int) bool {
	return t.legS[i] == 0 && t.leg1[i] != geom.HeadingNone
}

// trip returns the fields of slot i's compiled trip that the exact loops
// read besides the cached leg: Dst, TotalLen, FirstLen and the two leg
// headings, enough for HeadingAt and HeadingInto. Src, CornerPt and the
// leg directions stay zero.
func (t *tripCols) trip(i int) geom.CompiledPath {
	firstLen := t.legS[i]
	if t.onFirstLeg(i) {
		firstLen = t.legE[i]
	}
	return geom.CompiledPath{
		LPath:    geom.LPath{Dst: geom.Point{X: t.dstX[i], Y: t.dstY[i]}},
		FirstLen: firstLen,
		TotalLen: t.legT[i],
		Leg1:     t.leg1[i],
		Leg2:     t.leg2[i],
	}
}

// crossCorner moves slot i's cache from its first leg to its second. The
// corner is rebuilt exactly as geom.Compile computes it: the first leg
// starts at Src (the cached base) and runs along its heading's axis to the
// corner, which shares the other coordinate with Dst.
func (t *tripCols) crossCorner(i int) {
	cx, cy := t.legBX[i], t.legBY[i]
	if t.leg1[i].Horizontal() {
		cx = t.dstX[i]
	} else {
		cy = t.dstY[i]
	}
	t.legS[i], t.legE[i] = t.legE[i], t.legT[i]
	t.legBX[i], t.legBY[i] = cx, cy
	t.legDX[i], t.legDY[i] = t.leg2[i].Dir()
}

// legAt is CompiledPath.At(d) for a distance d that At places on slot i's
// cached leg, or at or past the trip's end. At's d <= 0 case needs no
// branch: d is then 0 on a leg starting at Src, and Src + 0*dir is Src
// (coordinates are never -0).
func (t *tripCols) legAt(i int, d float64) geom.Point {
	if d >= t.legT[i] {
		return geom.Point{X: t.dstX[i], Y: t.dstY[i]}
	}
	u := d - t.legS[i]
	return geom.Point{X: t.legBX[i] + u*t.legDX[i], Y: t.legBY[i] + u*t.legDY[i]}
}

// moveTo sets slot i's progress to d, which is not behind the cached leg,
// and returns CompiledPath.At(d). A d past the corner moves the cache to
// the second leg; with cornerOnSecond, so does d equal to FirstLen
// (MRWPAgent.syncLeg's convention), though At still places the corner
// itself on the first leg.
func (t *tripCols) moveTo(i int, d float64, cornerOnSecond bool) geom.Point {
	t.travelled[i] = d
	if !t.onFirstLeg(i) || d < t.legE[i] || (d == t.legE[i] && !cornerOnSecond) {
		return t.legAt(i, d)
	}
	if d == t.legE[i] {
		pos := t.legAt(i, d)
		t.crossCorner(i)
		return pos
	}
	t.crossCorner(i)
	return t.legAt(i, d)
}

// ---------------------------------------------------------------------------
// MRWP

// mrwpPop is the SoA form of n MRWP agents. Its leg cache follows
// MRWPAgent.syncLeg: a distance strictly below FirstLen rides the first
// leg, everything else the second. The common step touches only
// travelled, the leg cache and the view — never the other trip columns
// or the RNGs.
type mrwpPop struct {
	popBase
	tripCols
	m         *MRWP
	turns     []int64
	waypoints []int64
}

func newMRWPPop(m *MRWP, n int) *mrwpPop {
	return &mrwpPop{
		popBase:   newPopBase(n),
		tripCols:  newTripCols(n),
		m:         m,
		turns:     make([]int64, n),
		waypoints: make([]int64, n),
	}
}

// InitAgent implements Population.
func (p *mrwpPop) InitAgent(i int, rng rand.Source) {
	p.rngs[i] = rng
	lp, d := p.m.drawInit(rng)
	p.place(i, lp, d)
}

// place starts slot i on trip lp at progress d with zeroed counters and
// publishes its position.
func (p *mrwpPop) place(i int, lp geom.LPath, d float64) {
	p.turns[i] = 0
	p.waypoints[i] = 0
	pos := p.start(i, lp, d, true)
	p.publish(i, pos.X, pos.Y)
}

// StepRange implements Population. The common case — the move stays
// strictly inside the current leg — is pure multiply-add on six flat
// slices plus the position stores; corner crossings, arrivals and exact
// boundary hits fall through to stepSlow, the ported exact loop. Every
// agent publishes, so the dirty bits are set in one pass after the loop.
//
// Every column is re-sliced to [lo, hi) and then to one shared length, so
// the compiler proves each access in bounds and keeps the column pointers
// in registers (TestHotLoopsBoundsCheckFree holds it to that).
func (p *mrwpPop) StepRange(lo, hi int) {
	v, l := p.m.cfg.V, p.m.cfg.L
	trav := p.travelled[lo:hi]
	n := len(trav)
	legS, legE, legT := p.legS[lo:hi][:n], p.legE[lo:hi][:n], p.legT[lo:hi][:n]
	bx, by := p.legBX[lo:hi][:n], p.legBY[lo:hi][:n]
	dx, dy := p.legDX[lo:hi][:n], p.legDY[lo:hi][:n]
	x, y := p.view.X[lo:hi][:n], p.view.Y[lo:hi][:n]
	for i := range trav {
		tr := trav[i]
		t := tr + v
		if v < legT[i]-tr && t < legE[i] {
			trav[i] = t
			u := t - legS[i]
			pos := geom.Point{X: bx[i] + u*dx[i], Y: by[i] + u*dy[i]}.Clamp(l)
			x[i] = pos.X
			y[i] = pos.Y
			continue
		}
		p.stepSlow(lo + i)
	}
	p.markDirty(lo, hi)
}

// stepSlow is MRWPAgent.stepSlow on slot i: chain through corners,
// arrivals and fresh trips, counting turns and waypoints. The heading
// tests run on the trip fields rebuilt from the columns.
func (p *mrwpPop) stepSlow(i int) {
	pa := p.trip(i)
	d := p.travelled[i]
	residual := p.m.cfg.V
	for residual > 0 {
		remain := pa.TotalLen - d
		if residual < remain {
			corner := pa.FirstLen
			if d < corner && d+residual >= corner {
				before := pa.HeadingAt(d)
				d += residual
				after := pa.HeadingAt(d)
				if after != before && before != geom.HeadingNone && after != geom.HeadingNone {
					p.turns[i]++
				}
			} else {
				d += residual
			}
			break
		}
		// Reach the destination; account for a mid-path corner turn if it
		// is still ahead of the current progress.
		if corner := pa.FirstLen; d < corner && corner < pa.TotalLen {
			h1 := pa.HeadingAt(d)
			h2 := pa.HeadingAt(corner)
			if h1 != h2 && h1 != geom.HeadingNone && h2 != geom.HeadingNone {
				p.turns[i]++
			}
		}
		residual -= remain
		lastHeading := pa.HeadingInto()
		// Start a fresh trip from the current destination (MRWPAgent.startTrip).
		rng := p.rngs[i]
		dst := uniformPoint(rng, p.m.cfg.L)
		p.setTrip(i, geom.NewLPath(pa.Dst, dst, randOrder(rng)))
		pa = p.trip(i)
		d = 0
		p.waypoints[i]++
		if nh := pa.HeadingAt(0); nh != lastHeading && nh != geom.HeadingNone && lastHeading != geom.HeadingNone {
			p.turns[i]++
		}
	}
	pos := p.moveTo(i, d, true).Clamp(p.m.cfg.L)
	p.publish(i, pos.X, pos.Y)
}

// ---------------------------------------------------------------------------
// RWP

// rwpPop is the SoA form of n straight-line RWP agents.
type rwpPop struct {
	popBase
	m          *RWP
	srcX, srcY []float64
	dstX, dstY []float64
	travelled  []float64
	waypoints  []int64
}

func newRWPPop(m *RWP, n int) *rwpPop {
	return &rwpPop{
		popBase:   newPopBase(n),
		m:         m,
		srcX:      make([]float64, n),
		srcY:      make([]float64, n),
		dstX:      make([]float64, n),
		dstY:      make([]float64, n),
		travelled: make([]float64, n),
		waypoints: make([]int64, n),
	}
}

// InitAgent implements Population.
func (p *rwpPop) InitAgent(i int, rng rand.Source) {
	p.rngs[i] = rng
	p.waypoints[i] = 0
	src, dst, travelled := p.m.drawInit(rng)
	p.srcX[i], p.srcY[i] = src.X, src.Y
	p.dstX[i], p.dstY[i] = dst.X, dst.Y
	p.travelled[i] = travelled
	pos := rwpPos(src, dst, travelled, p.m.cfg.L)
	p.publish(i, pos.X, pos.Y)
}

// StepRange implements Population (RWPAgent.Step per slot). Every agent
// publishes, so the dirty bits are set in one pass after the loop.
func (p *rwpPop) StepRange(lo, hi int) {
	v, l := p.m.cfg.V, p.m.cfg.L
	trav := p.travelled[lo:hi]
	n := len(trav)
	srcX, srcY := p.srcX[lo:hi][:n], p.srcY[lo:hi][:n]
	dstX, dstY := p.dstX[lo:hi][:n], p.dstY[lo:hi][:n]
	rngs, waypoints := p.rngs[lo:hi][:n], p.waypoints[lo:hi][:n]
	x, y := p.view.X[lo:hi][:n], p.view.Y[lo:hi][:n]
	for i := range trav {
		src := geom.Point{X: srcX[i], Y: srcY[i]}
		dst := geom.Point{X: dstX[i], Y: dstY[i]}
		d := trav[i]
		residual := v
		for residual > 0 {
			remain := src.Dist(dst) - d
			if residual < remain {
				d += residual
				break
			}
			residual -= remain
			rng := rngs[i]
			src = dst
			dst.X = dist.Float64(rng) * l
			dst.Y = dist.Float64(rng) * l
			d = 0
			waypoints[i]++
		}
		srcX[i], srcY[i] = src.X, src.Y
		dstX[i], dstY[i] = dst.X, dst.Y
		trav[i] = d
		pos := rwpPos(src, dst, d, l)
		x[i] = pos.X
		y[i] = pos.Y
	}
	p.markDirty(lo, hi)
}

// rwpPos is RWPAgent.updatePos: the point travelled along the segment
// from src to dst, clamped to [0, l]^2.
func rwpPos(src, dst geom.Point, travelled, l float64) geom.Point {
	length := src.Dist(dst)
	if length == 0 {
		return src
	}
	frac := travelled / length
	return src.Add(dst.Sub(src).Scale(frac)).Clamp(l)
}

// ---------------------------------------------------------------------------
// RandomWalk

// walkPop is the SoA form of n random-walk agents. A walker's whole state
// is its position (in the view) and its RNG stream, so the population
// adds no slices of its own.
type walkPop struct {
	popBase
	m *RandomWalk
}

func newWalkPop(m *RandomWalk, n int) *walkPop {
	return &walkPop{popBase: newPopBase(n), m: m}
}

// InitAgent implements Population.
func (p *walkPop) InitAgent(i int, rng rand.Source) {
	p.rngs[i] = rng
	pos := uniformPoint(rng, p.m.cfg.L)
	p.publish(i, pos.X, pos.Y)
}

// StepRange implements Population (WalkAgent.Step per slot).
func (p *walkPop) StepRange(lo, hi int) {
	v, l := p.m.cfg.V, p.m.cfg.L
	rngs := p.rngs[lo:hi]
	n := len(rngs)
	x, y := p.view.X[lo:hi][:n], p.view.Y[lo:hi][:n]
	for i, rng := range rngs {
		theta := dist.Float64(rng) * 2 * math.Pi
		nx := x[i] + v*math.Cos(theta)
		ny := y[i] + v*math.Sin(theta)
		x[i] = reflect(nx, l)
		y[i] = reflect(ny, l)
	}
	p.markDirty(lo, hi)
}

// ---------------------------------------------------------------------------
// RandomDirection

// directionPop is the SoA form of n random-direction agents.
type directionPop struct {
	popBase
	m         *RandomDirection
	dx, dy    []float64 // unit direction
	remaining []float64 // distance left in the current epoch
}

func newDirectionPop(m *RandomDirection, n int) *directionPop {
	return &directionPop{
		popBase:   newPopBase(n),
		m:         m,
		dx:        make([]float64, n),
		dy:        make([]float64, n),
		remaining: make([]float64, n),
	}
}

// InitAgent implements Population.
func (p *directionPop) InitAgent(i int, rng rand.Source) {
	p.rngs[i] = rng
	pos := uniformPoint(rng, p.m.cfg.L)
	p.dx[i], p.dy[i], p.remaining[i] = drawDirectionEpoch(rng, p.m.cfg.L)
	// Start mid-epoch so agents are desynchronized from time 0.
	p.remaining[i] *= dist.Float64(rng)
	p.publish(i, pos.X, pos.Y)
}

// StepRange implements Population (DirectionAgent.Step per slot).
func (p *directionPop) StepRange(lo, hi int) {
	v, l := p.m.cfg.V, p.m.cfg.L
	remaining := p.remaining[lo:hi]
	n := len(remaining)
	dxs, dys := p.dx[lo:hi][:n], p.dy[lo:hi][:n]
	rngs := p.rngs[lo:hi][:n]
	x, y := p.view.X[lo:hi][:n], p.view.Y[lo:hi][:n]
	for i := range remaining {
		px, py := x[i], y[i]
		dx, dy, rem := dxs[i], dys[i], remaining[i]
		residual := v
		for residual > 0 {
			d := math.Min(residual, rem)
			nx, flipX := reflectDir(px+d*dx, l)
			ny, flipY := reflectDir(py+d*dy, l)
			px, py = nx, ny
			if flipX {
				dx = -dx
			}
			if flipY {
				dy = -dy
			}
			residual -= d
			rem -= d
			if rem <= 0 {
				dx, dy, rem = drawDirectionEpoch(rngs[i], l)
			}
		}
		dxs[i], dys[i], remaining[i] = dx, dy, rem
		x[i] = px
		y[i] = py
	}
	p.markDirty(lo, hi)
}

// ---------------------------------------------------------------------------
// PausedMRWP

// pausedPop is the SoA form of n paused-MRWP agents. PausedAgent reads its
// position through CompiledPath.At, so this leg cache follows At's
// boundary rather than syncLeg's: the corner itself rides the first leg.
type pausedPop struct {
	popBase
	tripCols
	m         *PausedMRWP
	pauseLeft []float64
}

func newPausedPop(m *PausedMRWP, n int) *pausedPop {
	return &pausedPop{
		popBase:   newPopBase(n),
		tripCols:  newTripCols(n),
		m:         m,
		pauseLeft: make([]float64, n),
	}
}

// InitAgent implements Population.
func (p *pausedPop) InitAgent(i int, rng rand.Source) {
	p.rngs[i] = rng
	lp, d, pause := p.m.drawInit(rng)
	p.place(i, lp, d, pause)
}

// place starts slot i on trip lp at progress d with pause left to rest
// and publishes its position.
func (p *pausedPop) place(i int, lp geom.LPath, d, pause float64) {
	p.pauseLeft[i] = pause
	pos := p.start(i, lp, d, false)
	p.publish(i, pos.X, pos.Y)
}

// StepRange implements Population (PausedAgent.Step per slot). An agent
// that is not resting and whose move stays strictly inside its cached leg
// takes the multiply-add path of mrwpPop; everything else runs stepSlow,
// the ported exact loop. An agent that rested through the whole step
// skips its publish, leaving its dirty bit clear — the view slot already
// holds the right position, so the "did I move" test compares against it
// directly.
func (p *pausedPop) StepRange(lo, hi int) {
	v, l := p.m.cfg.V, p.m.cfg.L
	trav := p.travelled[lo:hi]
	n := len(trav)
	pauseLeft := p.pauseLeft[lo:hi][:n]
	legS, legE, legT := p.legS[lo:hi][:n], p.legE[lo:hi][:n], p.legT[lo:hi][:n]
	bx, by := p.legBX[lo:hi][:n], p.legBY[lo:hi][:n]
	dx, dy := p.legDX[lo:hi][:n], p.legDY[lo:hi][:n]
	x, y := p.view.X[lo:hi][:n], p.view.Y[lo:hi][:n]
	// dirty is empty or holds exactly the n bits of the range, so the
	// i < len(dirty) test is the nil test the compiler can also use as the
	// bounds proof.
	var dirty []bool
	if p.view.Dirty != nil {
		dirty = p.view.Dirty[lo:hi][:n]
	}
	for i := range trav {
		tr := trav[i]
		t := tr + v
		if pauseLeft[i] <= 0 && v < legT[i]-tr && t < legE[i] {
			trav[i] = t
			u := t - legS[i]
			np := geom.Point{X: bx[i] + u*dx[i], Y: by[i] + u*dy[i]}.Clamp(l)
			if np.X != x[i] || np.Y != y[i] {
				if i < len(dirty) {
					dirty[i] = true
				}
				x[i] = np.X
				y[i] = np.Y
			}
			continue
		}
		p.stepSlow(lo + i)
	}
}

// stepSlow is PausedAgent.Step on slot i: consume pause time first, then
// travel with the rest of the time unit, chaining arrivals, pauses and
// fresh trips.
func (p *pausedPop) stepSlow(i int) {
	v, l, maxPause := p.m.cfg.V, p.m.cfg.L, p.m.maxPause
	d, pause := p.travelled[i], p.pauseLeft[i]
	timeLeft := 1.0
	for timeLeft > 0 {
		if pause > 0 {
			if pause >= timeLeft {
				pause -= timeLeft
				break
			}
			timeLeft -= pause
			pause = 0
		}
		remain := p.legT[i] - d
		maxDist := v * timeLeft
		if maxDist < remain {
			d += maxDist
			break
		}
		// Arrive, start a pause, then a fresh trip.
		timeLeft -= remain / v
		rng := p.rngs[i]
		pause = dist.Float64(rng) * maxPause
		src := geom.Point{X: p.dstX[i], Y: p.dstY[i]}
		dst := uniformPoint(rng, l)
		p.setTrip(i, geom.NewLPath(src, dst, randOrder(rng)))
		d = 0
	}
	p.pauseLeft[i] = pause
	np := p.moveTo(i, d, false).Clamp(l)
	if np.X == p.view.X[i] && np.Y == p.view.Y[i] {
		// Rested through the whole step: skip the publish so the dirty
		// bit stays clear (see PausedAgent.Step).
		return
	}
	p.publish(i, np.X, np.Y)
}
