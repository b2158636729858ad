package mobility

import (
	"fmt"
	"math/rand/v2"

	"manhattanflood/internal/dist"
	"manhattanflood/internal/geom"
)

// MRWP is the Manhattan Random Way-Point model (paper, Section 2): each
// agent repeatedly selects a uniform destination in the square and follows
// one of the two L-shaped Manhattan shortest paths, chosen uniformly, at
// constant speed.
type MRWP struct {
	cfg  Config
	init InitMode
	trip dist.TripSampler
	spat dist.Spatial
}

var _ Model = (*MRWP)(nil)

// MRWPOption customizes the model.
type MRWPOption func(*MRWP)

// WithInit selects the initialization mode (default InitStationary).
func WithInit(m InitMode) MRWPOption {
	return func(w *MRWP) { w.init = m }
}

// NewMRWP creates the Manhattan Random Way-Point model.
func NewMRWP(cfg Config, opts ...MRWPOption) (*MRWP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("mrwp: %w", err)
	}
	trip, err := dist.NewTripSampler(cfg.L)
	if err != nil {
		return nil, fmt.Errorf("mrwp: %w", err)
	}
	spat, err := dist.NewSpatial(cfg.L)
	if err != nil {
		return nil, fmt.Errorf("mrwp: %w", err)
	}
	m := &MRWP{cfg: cfg, trip: trip, spat: spat}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// Name implements Model.
func (m *MRWP) Name() string { return "mrwp" }

// NeverRests implements Model: MRWP agents travel distance V every step.
func (m *MRWP) NeverRests() bool { return true }

// NewPopulation implements BulkStepper.
func (m *MRWP) NewPopulation(n int) Population { return newMRWPPop(m, n) }

// Config returns the model parameters.
func (m *MRWP) Config() Config { return m.cfg }

// NewAgent implements Model.
func (m *MRWP) NewAgent(rng *rand.Rand) Agent {
	a := &MRWPAgent{cfg: m.cfg, rng: rng}
	var lp geom.LPath
	lp, a.travelled = m.drawInit(rng)
	a.setPath(lp)
	a.syncLeg()
	a.pos = a.path.At(a.travelled)
	return a
}

// drawInit draws one agent's initial trip state (path + progress along
// it) from rng according to the model's InitMode. It is the single source
// of the initialization RNG draw sequence: the AoS NewAgent and the SoA
// Population.InitAgent both call it, which is what makes their
// trajectories bit-identical from step 0.
func (m *MRWP) drawInit(rng rand.Source) (geom.LPath, float64) {
	switch m.init {
	case InitUniform:
		return geom.NewLPath(uniformPoint(rng, m.cfg.L), uniformPoint(rng, m.cfg.L), randOrder(rng)), 0
	case InitTheorem12:
		return m.drawTheorems(rng)
	default: // InitStationary
		t := m.trip.Sample(rng)
		return t.Path, t.Travelled
	}
}

// NewMRWPAgent creates a single stationary MRWP agent directly; a
// convenience for tests and examples that do not need the Model factory.
func (m *MRWP) NewMRWPAgent(rng *rand.Rand) *MRWPAgent {
	return m.NewAgent(rng).(*MRWPAgent)
}

// uniformPoint draws a uniform point of [0, l]^2 from rng, x first.
func uniformPoint(rng rand.Source, l float64) geom.Point {
	return geom.Pt(dist.Float64(rng)*l, dist.Float64(rng)*l)
}

func randOrder(rng rand.Source) geom.LegOrder {
	if dist.Float64(rng) < 0.5 {
		return geom.VerticalFirst
	}
	return geom.HorizontalFirst
}

// MRWPAgent is one agent of the MRWP model.
//
// The hot fields are grouped up front: the common step — advance within
// the current leg, no corner, no way-point — touches only the leg cache
// below plus pos/out, never the full compiled path.
type MRWPAgent struct {
	cfg       Config
	travelled float64
	// Current-leg cache: for legS <= t < legE the position is
	// (legBX, legBY) + (t - legS) * (legDX, legDY), bit-identical to
	// CompiledPath.At; legT caches the path's TotalLen for the arrival
	// test. Maintained by syncLeg.
	legS, legE float64
	legT       float64
	legBX      float64
	legBY      float64
	legDX      float64
	legDY      float64
	pos        geom.Point
	slotSink
	rng       *rand.Rand
	path      geom.CompiledPath
	turns     int64
	waypoints int64
}

// setPath installs a fresh trip, caching its derived geometry.
func (a *MRWPAgent) setPath(p geom.LPath) {
	a.path = geom.Compile(p)
}

// syncLeg refreshes the current-leg cache from path and travelled. The
// boundary rules mirror CompiledPath.At: distances strictly below FirstLen
// ride the first leg, everything else the second (degenerate legs
// included); the fast path only fires strictly inside (t < legE), so the
// At early-outs for d <= 0 and d >= TotalLen stay with the slow path.
func (a *MRWPAgent) syncLeg() {
	p := &a.path
	a.legT = p.TotalLen
	if a.travelled < p.FirstLen {
		a.legS, a.legE = 0, p.FirstLen
		a.legBX, a.legBY = p.Src.X, p.Src.Y
		a.legDX, a.legDY = p.D1X, p.D1Y
	} else {
		a.legS, a.legE = p.FirstLen, p.TotalLen
		a.legBX, a.legBY = p.CornerPt.X, p.CornerPt.Y
		a.legDX, a.legDY = p.D2X, p.D2Y
	}
}

// BindSlot implements SlotWriter.
func (a *MRWPAgent) BindSlot(v View, slot int) {
	a.bind(v, slot)
	a.publish(a.pos.X, a.pos.Y)
}

var _ SlotWriter = (*MRWPAgent)(nil)

// drawTheorems draws an initial trip state from the closed-form laws:
// position ~ Theorem 1; destination ~ Theorem 2; for a quadrant destination
// the current heading follows the Palm leg-weight decomposition, which
// fixes the remaining route.
func (m *MRWP) drawTheorems(rng rand.Source) (geom.LPath, float64) {
	var pos geom.Point
	for {
		pos = m.spat.Sample(rng)
		// The destination law is undefined exactly at corners (a
		// zero-probability event, but rejection keeps the sampler total).
		if pos.X*(m.cfg.L-pos.X)+pos.Y*(m.cfg.L-pos.Y) > 0 {
			break
		}
	}
	dl, err := dist.NewDestination(m.cfg.L, pos)
	if err != nil {
		// Unreachable after the rejection loop above; fall back to a fresh
		// uniform trip rather than panicking in library code.
		return geom.NewLPath(pos, uniformPoint(rng, m.cfg.L), randOrder(rng)), 0
	}
	dst, onCross := dl.Sample(rng)
	if onCross {
		// Final leg: a single straight segment; either leg order yields it.
		return geom.NewLPath(pos, dst, geom.VerticalFirst), 0
	}
	heading := dl.HeadingGivenQuadrant(rng, dst)
	order := geom.VerticalFirst
	if heading.Horizontal() {
		order = geom.HorizontalFirst
	}
	return geom.NewLPath(pos, dst, order), 0
}

// Pos implements Agent.
func (a *MRWPAgent) Pos() geom.Point { return a.pos }

// Speed implements Agent.
func (a *MRWPAgent) Speed() float64 { return a.cfg.V }

// Destination returns the current trip's destination.
func (a *MRWPAgent) Destination() geom.Point { return a.path.Dst }

// Heading returns the current axis direction of motion.
func (a *MRWPAgent) Heading() geom.Heading { return a.path.HeadingAt(a.travelled) }

// Turns returns the cumulative number of direction changes performed
// (the paper's "turns", Lemma 13).
func (a *MRWPAgent) Turns() int64 { return a.turns }

// Waypoints returns the cumulative number of destinations reached.
func (a *MRWPAgent) Waypoints() int64 { return a.waypoints }

// Path returns the current L-path (for tests and trace tooling).
func (a *MRWPAgent) Path() geom.LPath { return a.path.LPath }

// OnSecondLeg reports whether the agent is past its turn point.
func (a *MRWPAgent) OnSecondLeg() bool { return a.path.OnSecondLeg(a.travelled) }

// Step implements Agent. It advances the agent by distance V along its
// route, chaining into fresh trips as destinations are reached within the
// time unit, and counts direction changes (the paper's "turns").
//
// The common case — the move stays strictly inside the current leg — is
// pure multiply-add on the leg cache (bit-identical to CompiledPath.At)
// and touches neither the compiled path nor the RNG. Corner crossings,
// way-point arrivals and exact boundary hits take the slow path, which is
// the original exact loop.
func (a *MRWPAgent) Step() {
	// Both guards replicate the slow path's own float comparisons (the
	// arrival test residual < remain and the corner test
	// travelled+residual >= corner), so the branch taken here is exactly
	// the branch the original loop would take — boundary and 1-ulp cases
	// all fall through to the exact code.
	t := a.travelled + a.cfg.V
	if a.cfg.V < a.legT-a.travelled && t < a.legE {
		a.travelled = t
		u := t - a.legS
		a.pos = geom.Point{X: a.legBX + u*a.legDX, Y: a.legBY + u*a.legDY}.Clamp(a.cfg.L)
		a.publish(a.pos.X, a.pos.Y)
		return
	}
	a.stepSlow()
}

func (a *MRWPAgent) stepSlow() {
	residual := a.cfg.V
	for residual > 0 {
		remain := a.path.TotalLen - a.travelled
		if residual < remain {
			corner := a.path.FirstLen
			if a.travelled < corner && a.travelled+residual >= corner {
				before := a.path.HeadingAt(a.travelled)
				a.travelled += residual
				after := a.path.HeadingAt(a.travelled)
				if after != before && before != geom.HeadingNone && after != geom.HeadingNone {
					a.turns++
				}
			} else {
				a.travelled += residual
			}
			break
		}
		// Reach the destination; account for a mid-path corner turn if it
		// is still ahead of the current progress.
		if corner := a.path.FirstLen; a.travelled < corner && corner < a.path.TotalLen {
			h1 := a.path.HeadingAt(a.travelled)
			h2 := a.path.HeadingAt(corner)
			if h1 != h2 && h1 != geom.HeadingNone && h2 != geom.HeadingNone {
				a.turns++
			}
		}
		residual -= remain
		lastHeading := a.path.HeadingInto()
		a.startTrip()
		a.waypoints++
		if nh := a.path.HeadingAt(0); nh != lastHeading && nh != geom.HeadingNone && lastHeading != geom.HeadingNone {
			a.turns++
		}
	}
	a.syncLeg()
	a.pos = a.path.At(a.travelled).Clamp(a.cfg.L)
	a.publish(a.pos.X, a.pos.Y)
}

// startTrip begins a fresh trip from the current destination.
func (a *MRWPAgent) startTrip() {
	src := a.path.Dst
	dst := geom.Pt(a.rng.Float64()*a.cfg.L, a.rng.Float64()*a.cfg.L)
	a.setPath(geom.NewLPath(src, dst, randOrder(a.rng)))
	a.travelled = 0
}
