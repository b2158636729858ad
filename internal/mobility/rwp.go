package mobility

import (
	"fmt"
	"math"
	"math/rand/v2"

	"manhattanflood/internal/geom"
)

// RWP is the classic straight-line Random Way-Point model: uniform
// destinations reached along the Euclidean segment at constant speed. It is
// the natural baseline against MRWP — same way-point skeleton, different
// path geometry, and a differently shaped (but also non-uniform) stationary
// density.
type RWP struct {
	cfg  Config
	init InitMode
}

var _ Model = (*RWP)(nil)

// RWPOption customizes the model.
type RWPOption func(*RWP)

// WithRWPInit selects the initialization mode (default InitStationary).
// InitTheorem12 is specific to MRWP and is rejected by NewRWP.
func WithRWPInit(m InitMode) RWPOption {
	return func(w *RWP) { w.init = m }
}

// NewRWP creates the straight-line Random Way-Point model.
func NewRWP(cfg Config, opts ...RWPOption) (*RWP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("rwp: %w", err)
	}
	m := &RWP{cfg: cfg}
	for _, o := range opts {
		o(m)
	}
	if m.init == InitTheorem12 {
		return nil, fmt.Errorf("rwp: InitTheorem12 applies only to the MRWP model")
	}
	return m, nil
}

// Name implements Model.
func (m *RWP) Name() string { return "rwp" }

// NeverRests implements Model: RWP agents travel distance V every step.
func (m *RWP) NeverRests() bool { return true }

// NewPopulation implements BulkStepper.
func (m *RWP) NewPopulation(n int) Population { return newRWPPop(m, n) }

// NewAgent implements Model.
func (m *RWP) NewAgent(rng *rand.Rand) Agent {
	a := &RWPAgent{cfg: m.cfg, rng: rng}
	a.src, a.dst, a.travelled = m.drawInit(rng)
	a.updatePos()
	return a
}

// drawInit draws one agent's initial segment and progress; the single
// source of the initialization RNG draw sequence shared by the AoS and
// SoA forms.
func (m *RWP) drawInit(rng *rand.Rand) (src, dst geom.Point, travelled float64) {
	if m.init == InitUniform {
		src = geom.Pt(rng.Float64()*m.cfg.L, rng.Float64()*m.cfg.L)
		dst = geom.Pt(rng.Float64()*m.cfg.L, rng.Float64()*m.cfg.L)
		return src, dst, 0
	}
	// Palm trip law for straight-line RWP: endpoint density proportional
	// to the Euclidean length, position uniform along the segment.
	src, dst = sampleEuclideanBiasedPair(rng, m.cfg.L)
	return src, dst, rng.Float64() * src.Dist(dst)
}

// sampleEuclideanBiasedPair draws (A, B) from [0,L]^4 with density
// proportional to |A - B| by rejection against the diameter L*sqrt(2).
func sampleEuclideanBiasedPair(rng *rand.Rand, l float64) (geom.Point, geom.Point) {
	maxDist := l * math.Sqrt2
	for {
		a := geom.Pt(rng.Float64()*l, rng.Float64()*l)
		b := geom.Pt(rng.Float64()*l, rng.Float64()*l)
		if rng.Float64()*maxDist < a.Dist(b) {
			return a, b
		}
	}
}

// RWPAgent is one agent of the straight-line RWP model.
type RWPAgent struct {
	cfg       Config
	rng       *rand.Rand
	src, dst  geom.Point
	travelled float64
	pos       geom.Point
	slotSink
	waypoints int64
}

var _ SlotWriter = (*RWPAgent)(nil)

// BindSlot implements SlotWriter.
func (a *RWPAgent) BindSlot(v View, slot int) {
	a.bind(v, slot)
	a.publish(a.pos.X, a.pos.Y)
}

// Pos implements Agent.
func (a *RWPAgent) Pos() geom.Point { return a.pos }

// Speed implements Agent.
func (a *RWPAgent) Speed() float64 { return a.cfg.V }

// Destination returns the current trip's destination.
func (a *RWPAgent) Destination() geom.Point { return a.dst }

// Waypoints returns the number of destinations reached.
func (a *RWPAgent) Waypoints() int64 { return a.waypoints }

// Step implements Agent.
func (a *RWPAgent) Step() {
	residual := a.cfg.V
	for residual > 0 {
		length := a.src.Dist(a.dst)
		remain := length - a.travelled
		if residual < remain {
			a.travelled += residual
			break
		}
		residual -= remain
		a.src = a.dst
		a.dst = geom.Pt(a.rng.Float64()*a.cfg.L, a.rng.Float64()*a.cfg.L)
		a.travelled = 0
		a.waypoints++
	}
	a.updatePos()
}

func (a *RWPAgent) updatePos() {
	length := a.src.Dist(a.dst)
	if length == 0 {
		a.pos = a.src
		a.publish(a.pos.X, a.pos.Y)
		return
	}
	frac := a.travelled / length
	a.pos = a.src.Add(a.dst.Sub(a.src).Scale(frac)).Clamp(a.cfg.L)
	a.publish(a.pos.X, a.pos.Y)
}
