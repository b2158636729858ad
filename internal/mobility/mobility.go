// Package mobility implements the agent mobility models of the paper and
// its baselines:
//
//   - MRWP: the Manhattan Random Way-Point model (Section 2 of the paper) —
//     uniform destinations, one of the two L-paths chosen uniformly,
//     constant speed v.
//   - PausedMRWP: MRWP with Uniform(0, P) way-point pauses.
//   - RWP: the classic straight-line Random Way-Point model.
//   - RandomWalk: independent random walks with reflection, the
//     uniform-stationary-density baseline of the authors' earlier work
//     ([10], [11]).
//   - RandomDirection: travel along a uniform direction for a random
//     duration, reflecting at the boundary.
//
// MRWP supports perfect simulation: agents can be initialized directly in
// the stationary regime via the Palm trip law (dist.TripSampler) or via the
// closed-form marginal laws of Theorems 1-2. A cold (uniform) initializer
// is kept for warm-up/ablation studies.
//
// # SoA populations and the AoS reference
//
// Every model exposes its agents in two equivalent forms:
//
//   - Model.NewPopulation (the embedded BulkStepper): one Population per
//     world (structure-of-arrays). All mutable kinematic state — trip
//     progress, current-leg cache, unit directions, pause clocks — lives
//     in flat per-model parallel slices, and StepRange advances a whole
//     index range in one batched loop: no interface dispatch, no pointer
//     chase per agent, and state that the step actually touches packed
//     densely in cache. This is the only form sim.World steps.
//   - Model.NewAgent: one Agent value per node (array-of-structs). This is
//     the reference implementation — small, obviously faithful to the
//     paper's process definitions, and the oracle the differential tests
//     (internal/mobility/soatest) hold the populations to. No production
//     path steps it.
//
// The two forms are BIT-IDENTICAL by contract, not approximately equal:
// a population performs exactly the floating-point operation sequence and
// exactly the RNG draw sequence of the corresponding Agent, so SoA and
// AoS trajectories match to the last bit across models, workers, Reset
// and index regimes. Initialization draws are shared outright (one
// draw-helper per model feeds both forms), and the step loops are
// line-for-line ports operating on slice elements instead of fields.
//
// # View binding rules
//
// The simulator owns the position arrays; mobility publishes into them
// through a View:
//
//   - A Population binds the whole View once (Population.Bind) BEFORE any
//     InitAgent or StepRange call, and its agents' positions live
//     canonically in View.X/Y — the population keeps no private position
//     copy. Bind, InitAgent and StepRange must come from the simulator's
//     step discipline: Bind first, InitAgent per slot (publishing the
//     initial position), then StepRange over disjoint ranges (safe to run
//     concurrently — every agent writes only its own slots).
//   - Reference AoS agents bind one slot each (SlotWriter.BindSlot) and
//     scatter their position into it at the end of every Step, so the
//     differential tests compare both forms through identical views.
//
// View.Dirty, when non-nil, collects per-agent "position changed" bits
// for the spatial index's delta update: every publish sets the bit, and
// an agent that rested through a whole step (way-point pauses) skips the
// publish, leaving its bit clear. Models whose agents always move report
// NeverRests, letting the simulator drop the bitmap entirely.
package mobility

import (
	"fmt"
	"math"
	"math/rand/v2"

	"manhattanflood/internal/geom"
)

// Agent is one mobile node. Step advances it by exactly one time unit
// (distance Speed() along its route). Implementations are not safe for
// concurrent use; the simulator owns each agent.
type Agent interface {
	// Pos returns the current position, always inside [0, L]^2.
	Pos() geom.Point
	// Step advances the agent by one time unit.
	Step()
	// Speed returns the distance travelled per time unit.
	Speed() float64
}

// View is the simulator's structure-of-arrays position sink: slot i of the
// X and Y slices holds agent i's current coordinates. A bound Population
// keeps its agents' positions there canonically, and reference agents
// bound to a view (see SlotWriter) scatter their position into their slot
// at the end of every Step. Agent stepping itself is untouched — the view
// only routes the final write — so trajectories are bit-identical to the
// unbound path.
//
// Dirty, when non-nil, is the per-agent dirty bitmap the simulator hands
// to the spatial index's delta-update path: every publish sets
// Dirty[slot], and an agent that did not move at all this step (a
// way-point agent resting out its pause) skips publishing — its slot
// already holds the right coordinates — leaving its bit clear, so the
// index can skip untouched agents entirely. Setting the bit
// unconditionally keeps the mobility inner loop store-only (no
// load-compare per agent), and a population whose every agent publishes
// sets its range's bits in one pass after the loop; the "did I move"
// test lives with the one model that can rest, on its own cache-hot
// state. The simulator owns the bitmap and clears it before stepping the
// population; agents only ever write their own slot and bit, which keeps
// parallel stepping race-free.
type View struct {
	X, Y  []float64
	Dirty []bool
}

// SlotWriter is implemented by agents that can scatter their position
// directly into a bound View slot on every Step. Every reference agent in
// this package implements it, which lets the differential tests hold the
// AoS form's publishes, dirty bits included, to the population's.
type SlotWriter interface {
	Agent
	// BindSlot attaches the view slot the agent writes through and
	// immediately publishes the current position into it.
	BindSlot(v View, slot int)
}

// slotSink is the embeddable write-through half of SlotWriter: the bound
// view slot an agent scatters its position into. Concrete agents embed it
// and call publish at the end of every position change.
type slotSink struct {
	out  View
	slot int
}

// bind attaches the view slot.
func (s *slotSink) bind(v View, slot int) { s.out, s.slot = v, slot }

// publish scatters (x, y) into the bound slot, if any, and marks the slot
// dirty. Agents that know they did not move this step skip the call and
// leave their bit clear (see View.Dirty).
func (s *slotSink) publish(x, y float64) {
	if s.out.X == nil {
		return
	}
	if s.out.Dirty != nil {
		s.out.Dirty[s.slot] = true
	}
	s.out.X[s.slot] = x
	s.out.Y[s.slot] = y
}

// Model creates agents of one mobility kind, in both forms: NewAgent
// draws one AoS reference agent using the provided RNG (which the agent
// keeps for its own moves), and the embedded BulkStepper builds the
// population the simulator steps.
type Model interface {
	BulkStepper
	// Name identifies the model in tables and traces.
	Name() string
	// NewAgent creates one agent in the model's initial distribution.
	NewAgent(rng *rand.Rand) Agent
	// NeverRests reports whether every agent of this model changes
	// position on every step. Way-point models without pauses, random
	// walks and random-direction agents always cover distance V per time
	// unit, so their dirty bit would be set unconditionally; the simulator
	// uses this capability to skip per-agent dirty-bit collection entirely
	// (see sim.World.Step). A model with any resting state (way-point
	// pauses) must return false so resting agents keep their bits clear.
	NeverRests() bool
}

// Population is the structure-of-arrays form of n agents of one model:
// every mutable kinematic quantity lives in a flat per-model slice
// indexed by agent, and positions live canonically in the bound View.
// See the package documentation for the binding rules and the
// bit-identity contract with the AoS agents.
type Population interface {
	// Len returns the number of agents in the population.
	Len() int
	// Bind attaches the view whose X/Y slices hold the agents' positions.
	// Must be called exactly once, before any InitAgent or StepRange call;
	// len(v.X) and len(v.Y) must equal Len().
	Bind(v View)
	// InitAgent draws agent i's initial state from rng — consuming exactly
	// the draws the model's NewAgent would make from a rand.Rand over the
	// same stream — and publishes its initial position. The population
	// keeps the rng value itself (a 16-byte interface, no copy of the
	// stream) and draws agent i's later moves from it, so rng must stay
	// valid and unshared for the population's lifetime. sim.World passes
	// a pointer into its by-value []rand.PCG slab; a *rand.Rand works
	// too, and draws the identical stream.
	InitAgent(i int, rng rand.Source)
	// StepRange advances agents lo..hi-1 by one time unit each, in index
	// order, bit-identically to calling Step on the corresponding AoS
	// agents. Disjoint ranges may be stepped concurrently: an agent
	// touches only its own slots.
	StepRange(lo, hi int)
}

// BulkStepper is the population half of Model: it represents a model's
// agents as a Population stepped in one batched loop — no interface
// dispatch, no per-agent pointer chase, state packed in flat slices.
// NewPopulation must produce trajectories bit-identical to n NewAgent
// agents fed the same per-agent RNG streams.
type BulkStepper interface {
	// NewPopulation creates an empty population of n agents, ready for
	// Bind and per-agent InitAgent.
	NewPopulation(n int) Population
}

// Config carries the parameters shared by all mobility models.
type Config struct {
	// L is the side length of the square region.
	L float64
	// V is the agent speed (distance per time unit), V > 0.
	V float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.L <= 0 || math.IsNaN(c.L) || math.IsInf(c.L, 0) {
		return fmt.Errorf("mobility: side length L must be positive and finite, got %v", c.L)
	}
	if c.V <= 0 || math.IsNaN(c.V) || math.IsInf(c.V, 0) {
		return fmt.Errorf("mobility: speed V must be positive and finite, got %v", c.V)
	}
	return nil
}

// InitMode selects how MRWP/RWP agents are initialized.
type InitMode uint8

// Initialization modes.
const (
	// InitStationary samples the agent's full trip state from the Palm trip
	// law — the agent is exactly in the stationary regime at time 0. This
	// is the default and matches the paper's standing assumption.
	InitStationary InitMode = iota
	// InitUniform places the agent uniformly with a fresh uniform
	// destination ("cold start"). The process then needs a warm-up period
	// to converge to stationarity; kept for the E13 ablation.
	InitUniform
	// InitTheorem12 samples position from the closed-form spatial law
	// (Theorem 1) and the remaining route from the closed-form destination
	// law (Theorem 2 + heading decomposition). Stochastically identical to
	// InitStationary; implemented independently as a cross-check.
	InitTheorem12
)

// String implements fmt.Stringer.
func (m InitMode) String() string {
	switch m {
	case InitStationary:
		return "stationary"
	case InitUniform:
		return "uniform"
	case InitTheorem12:
		return "theorem12"
	default:
		return fmt.Sprintf("InitMode(%d)", uint8(m))
	}
}

// reflect folds a coordinate back into [0, side] by mirror reflection,
// handling arbitrarily large overshoots.
func reflect(v, side float64) float64 {
	if side <= 0 {
		return 0
	}
	period := 2 * side
	v = math.Mod(v, period)
	if v < 0 {
		v += period
	}
	if v > side {
		v = period - v
	}
	return v
}
