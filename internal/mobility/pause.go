package mobility

import (
	"fmt"
	"math"
	"math/rand/v2"

	"manhattanflood/internal/dist"
	"manhattanflood/internal/geom"
)

// PausedMRWP extends the Manhattan Random Way-Point model with the
// classic way-point *pause*: on reaching each destination the agent rests
// for a Uniform(0, MaxPause) stretch of time before drawing the next
// trip. Pauses are the most common RWP variant in the simulation
// literature (Camp-Boleng-Davies) and the natural "future work" knob for
// the paper's model.
//
// The stationary law changes in a cleanly testable way: destinations are
// uniform, so *paused* agents are uniform over the square, and the
// stationary spatial density becomes the mixture
//
//	f_pause(x, y) = q/L^2 + (1-q) f(x, y)
//
// with f from Theorem 1 and q = E[pause]/(E[pause] + E[trip time]) =
// (P/2) / (P/2 + (2L/3)/v) the stationary probability of being paused.
// Perfect simulation samples the phase from q, a residual pause by
// length-biasing (total ~ P*sqrt(U), elapsed uniform within it), or a
// Palm trip as in the base model.
type PausedMRWP struct {
	cfg      Config
	maxPause float64
	trip     dist.TripSampler
}

var _ Model = (*PausedMRWP)(nil)

// NewPausedMRWP creates the paused variant; maxPause is in time units and
// must be positive (use plain NewMRWP for zero pause).
func NewPausedMRWP(cfg Config, maxPause float64) (*PausedMRWP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("paused-mrwp: %w", err)
	}
	if maxPause <= 0 || math.IsNaN(maxPause) || math.IsInf(maxPause, 0) {
		return nil, fmt.Errorf("paused-mrwp: maxPause must be positive and finite, got %v", maxPause)
	}
	trip, err := dist.NewTripSampler(cfg.L)
	if err != nil {
		return nil, fmt.Errorf("paused-mrwp: %w", err)
	}
	return &PausedMRWP{cfg: cfg, maxPause: maxPause, trip: trip}, nil
}

// Name implements Model.
func (m *PausedMRWP) Name() string { return "mrwp-paused" }

// NeverRests implements Model: paused agents can rest through whole steps,
// so the simulator must keep collecting per-agent dirty bits.
func (m *PausedMRWP) NeverRests() bool { return false }

// NewPopulation implements BulkStepper.
func (m *PausedMRWP) NewPopulation(n int) Population { return newPausedPop(m, n) }

// PausedFraction returns the stationary probability q of being paused.
func (m *PausedMRWP) PausedFraction() float64 {
	meanPause := m.maxPause / 2
	meanTrip := (2 * m.cfg.L / 3) / m.cfg.V
	return meanPause / (meanPause + meanTrip)
}

// StationaryDensity evaluates the mixture density f_pause at (x, y),
// the closed form the test suite validates the sampler against.
func (m *PausedMRWP) StationaryDensity(x, y float64) float64 {
	sp, err := dist.NewSpatial(m.cfg.L)
	if err != nil {
		return 0
	}
	q := m.PausedFraction()
	return q/(m.cfg.L*m.cfg.L) + (1-q)*sp.Density(x, y)
}

// NewAgent implements Model with exact stationary initialization.
func (m *PausedMRWP) NewAgent(rng *rand.Rand) Agent {
	a := &PausedAgent{cfg: m.cfg, maxPause: m.maxPause, rng: rng}
	var lp geom.LPath
	lp, a.travelled, a.pauseLeft = m.drawInit(rng)
	a.setPath(lp)
	a.pos = a.path.At(a.travelled)
	return a
}

// drawInit draws one agent's initial phase, trip and pause clock; the
// single source of the initialization RNG draw sequence shared by the AoS
// and SoA forms.
func (m *PausedMRWP) drawInit(rng rand.Source) (path geom.LPath, travelled, pauseLeft float64) {
	if dist.Float64(rng) < m.PausedFraction() {
		// Paused phase: position uniform (destinations are uniform), total
		// pause length-biased (density ~ tau on [0, P] => P*sqrt(U)),
		// elapsed time uniform within it.
		pos := uniformPoint(rng, m.cfg.L)
		total := m.maxPause * math.Sqrt(dist.Float64(rng))
		pauseLeft = total * dist.Float64(rng)
		// The agent has arrived at pos: like Step's arrival branch, draw
		// the next trip from there now, to start when the pause ends.
		dst := uniformPoint(rng, m.cfg.L)
		return geom.NewLPath(pos, dst, randOrder(rng)), 0, pauseLeft
	}
	t := m.trip.Sample(rng)
	return t.Path, t.Travelled, 0
}

// PausedAgent is one agent of the paused MRWP model.
type PausedAgent struct {
	cfg       Config
	maxPause  float64
	rng       *rand.Rand
	path      geom.CompiledPath
	travelled float64
	pauseLeft float64 // remaining pause time at the current way-point
	pos       geom.Point
	slotSink
}

// setPath installs a fresh trip, caching its derived geometry.
func (a *PausedAgent) setPath(p geom.LPath) { a.path = geom.Compile(p) }

var _ SlotWriter = (*PausedAgent)(nil)

// BindSlot implements SlotWriter.
func (a *PausedAgent) BindSlot(v View, slot int) {
	a.bind(v, slot)
	a.publish(a.pos.X, a.pos.Y)
}

// Pos implements Agent.
func (a *PausedAgent) Pos() geom.Point { return a.pos }

// Speed implements Agent.
func (a *PausedAgent) Speed() float64 { return a.cfg.V }

// Paused reports whether the agent is currently resting at a way-point.
func (a *PausedAgent) Paused() bool { return a.pauseLeft > 0 }

// Step implements Agent: consume pause time first, then travel with the
// remaining fraction of the time unit, chaining trips and pauses as they
// complete.
func (a *PausedAgent) Step() {
	timeLeft := 1.0
	for timeLeft > 0 {
		if a.pauseLeft > 0 {
			if a.pauseLeft >= timeLeft {
				a.pauseLeft -= timeLeft
				break
			}
			timeLeft -= a.pauseLeft
			a.pauseLeft = 0
		}
		remain := a.path.TotalLen - a.travelled
		maxDist := a.cfg.V * timeLeft
		if maxDist < remain {
			a.travelled += maxDist
			break
		}
		// Arrive, start a pause, then a fresh trip.
		timeLeft -= remain / a.cfg.V
		a.pauseLeft = a.rng.Float64() * a.maxPause
		src := a.path.Dst
		dst := geom.Pt(a.rng.Float64()*a.cfg.L, a.rng.Float64()*a.cfg.L)
		a.setPath(geom.NewLPath(src, dst, randOrder(a.rng)))
		a.travelled = 0
	}
	np := a.path.At(a.travelled).Clamp(a.cfg.L)
	if np == a.pos {
		// Rested through the whole step: the bound slot already holds
		// this position, and skipping the publish keeps the dirty bit
		// clear so the spatial index's delta update skips the agent too.
		return
	}
	a.pos = np
	a.publish(np.X, np.Y)
}
