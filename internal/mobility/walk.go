package mobility

import (
	"fmt"
	"math"
	"math/rand/v2"

	"manhattanflood/internal/dist"
	"manhattanflood/internal/geom"
)

// RandomWalk is the uniform-stationary-density baseline used by the
// authors' earlier flooding analyses ([10], [11]): at every time unit the
// agent moves distance V in a fresh uniformly random direction, reflecting
// off the square's boundary. Its stationary spatial distribution is uniform
// — the contrast against MRWP's center-heavy law is the point of the E14
// comparison.
type RandomWalk struct {
	cfg Config
}

var _ Model = (*RandomWalk)(nil)

// NewRandomWalk creates the random-walk model.
func NewRandomWalk(cfg Config) (*RandomWalk, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("randomwalk: %w", err)
	}
	return &RandomWalk{cfg: cfg}, nil
}

// Name implements Model.
func (m *RandomWalk) Name() string { return "random-walk" }

// NeverRests implements Model: walkers move distance V every step.
func (m *RandomWalk) NeverRests() bool { return true }

// NewPopulation implements BulkStepper.
func (m *RandomWalk) NewPopulation(n int) Population { return newWalkPop(m, n) }

// NewAgent implements Model. Agents start uniform, which is already the
// stationary law of this model.
func (m *RandomWalk) NewAgent(rng *rand.Rand) Agent {
	return &WalkAgent{
		cfg: m.cfg,
		rng: rng,
		pos: geom.Pt(rng.Float64()*m.cfg.L, rng.Float64()*m.cfg.L),
	}
}

// WalkAgent is one random-walk agent.
type WalkAgent struct {
	cfg Config
	rng *rand.Rand
	pos geom.Point
	slotSink
}

var _ SlotWriter = (*WalkAgent)(nil)

// Pos implements Agent.
func (a *WalkAgent) Pos() geom.Point { return a.pos }

// Speed implements Agent.
func (a *WalkAgent) Speed() float64 { return a.cfg.V }

// BindSlot implements SlotWriter.
func (a *WalkAgent) BindSlot(v View, slot int) {
	a.bind(v, slot)
	a.publish(a.pos.X, a.pos.Y)
}

// Step implements Agent.
func (a *WalkAgent) Step() {
	theta := a.rng.Float64() * 2 * math.Pi
	nx := a.pos.X + a.cfg.V*math.Cos(theta)
	ny := a.pos.Y + a.cfg.V*math.Sin(theta)
	a.pos = geom.Pt(reflect(nx, a.cfg.L), reflect(ny, a.cfg.L))
	a.publish(a.pos.X, a.pos.Y)
}

// RandomDirection is the random-direction model: the agent picks a uniform
// direction and a travel duration uniform in [0, L/V] time units, walks
// that far reflecting off walls, then re-draws. Like the random walk its
// stationary density is (near) uniform, but its step-to-step positions are
// strongly correlated, like the way-point models.
type RandomDirection struct {
	cfg Config
}

var _ Model = (*RandomDirection)(nil)

// NewRandomDirection creates the random-direction model.
func NewRandomDirection(cfg Config) (*RandomDirection, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("randomdirection: %w", err)
	}
	return &RandomDirection{cfg: cfg}, nil
}

// Name implements Model.
func (m *RandomDirection) Name() string { return "random-direction" }

// NeverRests implements Model: direction agents move distance V every step.
func (m *RandomDirection) NeverRests() bool { return true }

// NewPopulation implements BulkStepper.
func (m *RandomDirection) NewPopulation(n int) Population { return newDirectionPop(m, n) }

// NewAgent implements Model.
func (m *RandomDirection) NewAgent(rng *rand.Rand) Agent {
	a := &DirectionAgent{
		cfg: m.cfg,
		rng: rng,
		pos: geom.Pt(rng.Float64()*m.cfg.L, rng.Float64()*m.cfg.L),
	}
	a.redraw()
	// Start mid-epoch so agents are desynchronized from time 0.
	a.remaining *= rng.Float64()
	return a
}

// DirectionAgent is one random-direction agent.
type DirectionAgent struct {
	cfg       Config
	rng       *rand.Rand
	pos       geom.Point
	dx, dy    float64 // unit direction
	remaining float64 // distance left in the current epoch
	slotSink
}

var _ SlotWriter = (*DirectionAgent)(nil)

// BindSlot implements SlotWriter.
func (a *DirectionAgent) BindSlot(v View, slot int) {
	a.bind(v, slot)
	a.publish(a.pos.X, a.pos.Y)
}

func (a *DirectionAgent) redraw() {
	a.dx, a.dy, a.remaining = drawDirectionEpoch(a.rng, a.cfg.L)
}

// drawDirectionEpoch draws a fresh direction epoch (unit direction +
// travel distance); shared by the AoS and SoA forms so both consume the
// same RNG draw sequence.
func drawDirectionEpoch(rng rand.Source, l float64) (dx, dy, remaining float64) {
	theta := dist.Float64(rng) * 2 * math.Pi
	return math.Cos(theta), math.Sin(theta), dist.Float64(rng) * l
}

// Pos implements Agent.
func (a *DirectionAgent) Pos() geom.Point { return a.pos }

// Speed implements Agent.
func (a *DirectionAgent) Speed() float64 { return a.cfg.V }

// Step implements Agent.
func (a *DirectionAgent) Step() {
	residual := a.cfg.V
	for residual > 0 {
		d := math.Min(residual, a.remaining)
		nx, flipX := reflectDir(a.pos.X+d*a.dx, a.cfg.L)
		ny, flipY := reflectDir(a.pos.Y+d*a.dy, a.cfg.L)
		a.pos = geom.Pt(nx, ny)
		if flipX {
			a.dx = -a.dx
		}
		if flipY {
			a.dy = -a.dy
		}
		residual -= d
		a.remaining -= d
		if a.remaining <= 0 {
			a.redraw()
		}
	}
	a.publish(a.pos.X, a.pos.Y)
}

// reflectDir folds v into [0, side] by mirror reflection and reports
// whether the motion direction flips: the fold is a triangle wave in v, and
// the direction flips exactly on its descending branches (mod(v, 2side) in
// (side, 2side)).
func reflectDir(v, side float64) (folded float64, flipped bool) {
	period := 2 * side
	m := math.Mod(v, period)
	if m < 0 {
		m += period
	}
	if m > side {
		return period - m, true
	}
	return m, false
}
