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
// Initialization draws are not duplicated at all: InitAgent calls the
// model's drawInit helper, the same function the AoS NewAgent consumes.

import (
	"math"
	"math/rand/v2"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/panicsafe"
)

// popBase carries the state every population shares: the bound view and
// the per-agent RNG streams. Positions live in the view, not here.
type popBase struct {
	view View
	rngs []*rand.Rand
}

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

// ---------------------------------------------------------------------------
// MRWP

// mrwpPop is the SoA form of n MRWP agents. The hot slices mirror
// MRWPAgent's hot fields: the common step touches only travelled, the
// current-leg cache and the view — never the compiled paths or the RNGs.
type mrwpPop struct {
	popBase
	m         *MRWP
	travelled []float64
	// Current-leg cache, maintained by syncLeg exactly as MRWPAgent's.
	legS, legE []float64
	legT       []float64
	legBX      []float64
	legBY      []float64
	legDX      []float64
	legDY      []float64
	path       []geom.CompiledPath
	turns      []int64
	waypoints  []int64
}

func newMRWPPop(m *MRWP, n int) *mrwpPop {
	return &mrwpPop{
		popBase:   popBase{rngs: make([]*rand.Rand, n)},
		m:         m,
		travelled: make([]float64, n),
		legS:      make([]float64, n),
		legE:      make([]float64, n),
		legT:      make([]float64, n),
		legBX:     make([]float64, n),
		legBY:     make([]float64, n),
		legDX:     make([]float64, n),
		legDY:     make([]float64, n),
		path:      make([]geom.CompiledPath, n),
		turns:     make([]int64, n),
		waypoints: make([]int64, n),
	}
}

// InitAgent implements Population.
func (p *mrwpPop) InitAgent(i int, rng *rand.Rand) {
	p.rngs[i] = rng
	p.turns[i] = 0
	p.waypoints[i] = 0
	p.path[i], p.travelled[i] = p.m.drawInit(rng)
	p.syncLeg(i)
	pos := p.path[i].At(p.travelled[i])
	p.publish(i, pos.X, pos.Y)
}

// syncLeg is MRWPAgent.syncLeg on slot i.
func (p *mrwpPop) syncLeg(i int) {
	pa := &p.path[i]
	p.legT[i] = pa.TotalLen
	if p.travelled[i] < pa.FirstLen {
		p.legS[i], p.legE[i] = 0, pa.FirstLen
		p.legBX[i], p.legBY[i] = pa.Src.X, pa.Src.Y
		p.legDX[i], p.legDY[i] = pa.D1X, pa.D1Y
	} else {
		p.legS[i], p.legE[i] = pa.FirstLen, pa.TotalLen
		p.legBX[i], p.legBY[i] = pa.CornerPt.X, pa.CornerPt.Y
		p.legDX[i], p.legDY[i] = pa.D2X, pa.D2Y
	}
}

// StepRange implements Population. The common case — the move stays
// strictly inside the current leg — is pure multiply-add on six flat
// slices plus the position stores; corner crossings, arrivals and exact
// boundary hits fall through to stepSlow, the ported exact loop.
func (p *mrwpPop) StepRange(lo, hi int) {
	v, l := p.m.cfg.V, p.m.cfg.L
	x, y, dirty := p.view.X, p.view.Y, p.view.Dirty
	trav := p.travelled
	legS, legE, legT := p.legS, p.legE, p.legT
	bx, by, dx, dy := p.legBX, p.legBY, p.legDX, p.legDY
	for i := lo; i < hi; i++ {
		t := trav[i] + v
		if v < legT[i]-trav[i] && t < legE[i] {
			trav[i] = t
			u := t - legS[i]
			pos := geom.Point{X: bx[i] + u*dx[i], Y: by[i] + u*dy[i]}.Clamp(l)
			if dirty != nil {
				dirty[i] = true
			}
			x[i] = pos.X
			y[i] = pos.Y
			continue
		}
		p.stepSlow(i)
	}
}

// stepSlow is MRWPAgent.stepSlow on slot i: chain through corners,
// arrivals and fresh trips, counting turns and waypoints.
func (p *mrwpPop) stepSlow(i int) {
	pa := &p.path[i]
	residual := p.m.cfg.V
	for residual > 0 {
		remain := pa.TotalLen - p.travelled[i]
		if residual < remain {
			corner := pa.FirstLen
			if p.travelled[i] < corner && p.travelled[i]+residual >= corner {
				before := pa.HeadingAt(p.travelled[i])
				p.travelled[i] += residual
				after := pa.HeadingAt(p.travelled[i])
				if after != before && before != geom.HeadingNone && after != geom.HeadingNone {
					p.turns[i]++
				}
			} else {
				p.travelled[i] += residual
			}
			break
		}
		// Reach the destination; account for a mid-path corner turn if it
		// is still ahead of the current progress.
		if corner := pa.FirstLen; p.travelled[i] < corner && corner < pa.TotalLen {
			h1 := pa.HeadingAt(p.travelled[i])
			h2 := pa.HeadingAt(corner)
			if h1 != h2 && h1 != geom.HeadingNone && h2 != geom.HeadingNone {
				p.turns[i]++
			}
		}
		residual -= remain
		lastHeading := pa.HeadingInto()
		// Start a fresh trip from the current destination (MRWPAgent.startTrip).
		rng := p.rngs[i]
		src := pa.Dst
		dst := geom.Pt(rng.Float64()*p.m.cfg.L, rng.Float64()*p.m.cfg.L)
		*pa = geom.Compile(geom.NewLPath(src, dst, randOrder(rng)))
		p.travelled[i] = 0
		p.waypoints[i]++
		if nh := pa.HeadingAt(0); nh != lastHeading && nh != geom.HeadingNone && lastHeading != geom.HeadingNone {
			p.turns[i]++
		}
	}
	p.syncLeg(i)
	pos := pa.At(p.travelled[i]).Clamp(p.m.cfg.L)
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
		popBase:   popBase{rngs: make([]*rand.Rand, n)},
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
func (p *rwpPop) InitAgent(i int, rng *rand.Rand) {
	p.rngs[i] = rng
	p.waypoints[i] = 0
	src, dst, travelled := p.m.drawInit(rng)
	p.srcX[i], p.srcY[i] = src.X, src.Y
	p.dstX[i], p.dstY[i] = dst.X, dst.Y
	p.travelled[i] = travelled
	p.updatePos(i)
}

// StepRange implements Population (RWPAgent.Step per slot).
func (p *rwpPop) StepRange(lo, hi int) {
	v, l := p.m.cfg.V, p.m.cfg.L
	for i := lo; i < hi; i++ {
		residual := v
		for residual > 0 {
			src := geom.Point{X: p.srcX[i], Y: p.srcY[i]}
			dst := geom.Point{X: p.dstX[i], Y: p.dstY[i]}
			length := src.Dist(dst)
			remain := length - p.travelled[i]
			if residual < remain {
				p.travelled[i] += residual
				break
			}
			residual -= remain
			rng := p.rngs[i]
			p.srcX[i], p.srcY[i] = p.dstX[i], p.dstY[i]
			p.dstX[i] = rng.Float64() * l
			p.dstY[i] = rng.Float64() * l
			p.travelled[i] = 0
			p.waypoints[i]++
		}
		p.updatePos(i)
	}
}

// updatePos is RWPAgent.updatePos on slot i.
func (p *rwpPop) updatePos(i int) {
	src := geom.Point{X: p.srcX[i], Y: p.srcY[i]}
	dst := geom.Point{X: p.dstX[i], Y: p.dstY[i]}
	length := src.Dist(dst)
	if length == 0 {
		p.publish(i, src.X, src.Y)
		return
	}
	frac := p.travelled[i] / length
	pos := src.Add(dst.Sub(src).Scale(frac)).Clamp(p.m.cfg.L)
	p.publish(i, pos.X, pos.Y)
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
	return &walkPop{popBase: popBase{rngs: make([]*rand.Rand, n)}, m: m}
}

// InitAgent implements Population.
func (p *walkPop) InitAgent(i int, rng *rand.Rand) {
	p.rngs[i] = rng
	pos := geom.Pt(rng.Float64()*p.m.cfg.L, rng.Float64()*p.m.cfg.L)
	p.publish(i, pos.X, pos.Y)
}

// StepRange implements Population (WalkAgent.Step per slot).
func (p *walkPop) StepRange(lo, hi int) {
	v, l := p.m.cfg.V, p.m.cfg.L
	x, y := p.view.X, p.view.Y
	for i := lo; i < hi; i++ {
		theta := p.rngs[i].Float64() * 2 * math.Pi
		nx := x[i] + v*math.Cos(theta)
		ny := y[i] + v*math.Sin(theta)
		pos := geom.Pt(reflect(nx, l), reflect(ny, l))
		p.publish(i, pos.X, pos.Y)
	}
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
		popBase:   popBase{rngs: make([]*rand.Rand, n)},
		m:         m,
		dx:        make([]float64, n),
		dy:        make([]float64, n),
		remaining: make([]float64, n),
	}
}

// InitAgent implements Population.
func (p *directionPop) InitAgent(i int, rng *rand.Rand) {
	p.rngs[i] = rng
	pos := geom.Pt(rng.Float64()*p.m.cfg.L, rng.Float64()*p.m.cfg.L)
	p.dx[i], p.dy[i], p.remaining[i] = drawDirectionEpoch(rng, p.m.cfg.L)
	// Start mid-epoch so agents are desynchronized from time 0.
	p.remaining[i] *= rng.Float64()
	p.publish(i, pos.X, pos.Y)
}

// StepRange implements Population (DirectionAgent.Step per slot).
func (p *directionPop) StepRange(lo, hi int) {
	v, l := p.m.cfg.V, p.m.cfg.L
	x, y := p.view.X, p.view.Y
	for i := lo; i < hi; i++ {
		px, py := x[i], y[i]
		residual := v
		for residual > 0 {
			d := math.Min(residual, p.remaining[i])
			nx, flipX := reflectDir(px+d*p.dx[i], l)
			ny, flipY := reflectDir(py+d*p.dy[i], l)
			px, py = nx, ny
			if flipX {
				p.dx[i] = -p.dx[i]
			}
			if flipY {
				p.dy[i] = -p.dy[i]
			}
			residual -= d
			p.remaining[i] -= d
			if p.remaining[i] <= 0 {
				p.dx[i], p.dy[i], p.remaining[i] = drawDirectionEpoch(p.rngs[i], l)
			}
		}
		p.publish(i, px, py)
	}
}

// ---------------------------------------------------------------------------
// PausedMRWP

// pausedPop is the SoA form of n paused-MRWP agents.
type pausedPop struct {
	popBase
	m         *PausedMRWP
	travelled []float64
	pauseLeft []float64
	path      []geom.CompiledPath
}

func newPausedPop(m *PausedMRWP, n int) *pausedPop {
	return &pausedPop{
		popBase:   popBase{rngs: make([]*rand.Rand, n)},
		m:         m,
		travelled: make([]float64, n),
		pauseLeft: make([]float64, n),
		path:      make([]geom.CompiledPath, n),
	}
}

// InitAgent implements Population.
func (p *pausedPop) InitAgent(i int, rng *rand.Rand) {
	p.rngs[i] = rng
	p.path[i], p.travelled[i], p.pauseLeft[i] = p.m.drawInit(rng)
	pos := p.path[i].At(p.travelled[i])
	p.publish(i, pos.X, pos.Y)
}

// StepRange implements Population (PausedAgent.Step per slot). An agent
// that rested through the whole step skips its publish, leaving its
// dirty bit clear — the view slot already holds the right position, so
// the "did I move" test compares against it directly.
func (p *pausedPop) StepRange(lo, hi int) {
	v, l, maxPause := p.m.cfg.V, p.m.cfg.L, p.m.maxPause
	x, y := p.view.X, p.view.Y
	for i := lo; i < hi; i++ {
		pa := &p.path[i]
		timeLeft := 1.0
		for timeLeft > 0 {
			if p.pauseLeft[i] > 0 {
				if p.pauseLeft[i] >= timeLeft {
					p.pauseLeft[i] -= timeLeft
					break
				}
				timeLeft -= p.pauseLeft[i]
				p.pauseLeft[i] = 0
			}
			remain := pa.TotalLen - p.travelled[i]
			maxDist := v * timeLeft
			if maxDist < remain {
				p.travelled[i] += maxDist
				break
			}
			// Arrive, start a pause, then a fresh trip.
			timeLeft -= remain / v
			rng := p.rngs[i]
			p.pauseLeft[i] = rng.Float64() * maxPause
			src := pa.Dst
			dst := geom.Pt(rng.Float64()*l, rng.Float64()*l)
			*pa = geom.Compile(geom.NewLPath(src, dst, randOrder(rng)))
			p.travelled[i] = 0
		}
		np := pa.At(p.travelled[i]).Clamp(l)
		if np.X == x[i] && np.Y == y[i] {
			// Rested through the whole step: skip the publish so the dirty
			// bit stays clear (see PausedAgent.Step).
			continue
		}
		p.publish(i, np.X, np.Y)
	}
}
