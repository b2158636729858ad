// Package sim provides the discrete-time simulation engine: a World of n
// agents driven by a mobility model in lockstep, with a fixed-radius
// neighbor index kept in sync every step and deterministic seeding.
//
// The engine is deliberately protocol-agnostic; the flooding process (the
// paper's subject) lives in internal/core and observes the World through
// its accessors.
//
// # Structure-of-arrays layout
//
// The World stores agent positions as two flat float64 slices (one per
// coordinate) rather than a []geom.Point: the Monte-Carlo sweeps that
// dominate the simulator's runtime stream X before (or instead of) Y in
// their distance tests, and the split layout halves the memory traffic of
// those loops. ALL mutable agent state — not just positions — lives in
// the model's mobility.Population, in flat per-model slices: the world
// binds the population to its X/Y view and steps it in batched range
// loops with no per-agent interface call at all, then classifies the
// fresh positions into grid buckets chunk-by-chunk while they are still
// cache-hot (the fused advance→classify pass, internal/kernel.Buckets)
// and feeds the precomputed bucket ids straight to the neighbor index
// (spatialindex.Index.UpdateCells / RebuildXYCells) — no second
// per-agent sweep. The population is the only stepping path; the AoS
// reference agents (mobility.Model.NewAgent) serve as the oracle of
// internal/mobility/soatest, which holds whole worlds to them bit for
// bit. X and Y expose the live slices (valid snapshots only until the
// next Step/Reset); Positions allocates a point snapshot for cold paths
// (traces, examples) that remains valid forever.
//
// Models that can rest (way-point pauses) also collect per-agent dirty
// bits: an agent whose step leaves its coordinates unchanged keeps its
// dirty bit clear, and Step hands the bitmap to the neighbor index's
// delta-update path (spatialindex.Index.Update), which skips clean agents
// and patches only the buckets that actually changed — falling back to the
// full counting-sort rebuild when too many agents moved bucket. The
// resulting index state is bit-identical to a fresh rebuild either way.
//
// # Reset and world pooling
//
// Reset re-draws every agent from a fresh seed in place — reusing the
// model, the population, the per-agent RNGs, the position slices, and the
// neighbor index — and is bit-identical to constructing a new World with
// the same parameters. Trial sweeps (internal/experiments) pool one World
// (plus one flooding process per radius lane) per worker and Reset it
// between trials, which removes every per-trial allocation; see
// experiments.floodTrials.
//
// # Bound indexes
//
// R enters a World only through its neighbor index: the trajectories of
// a seed are the same at every radius. So one world can serve floods at
// several radii at once. The world's own index stays at Params().R and
// is synced by the fused step exactly as above; BindIndex adds a further
// index at another radius, which Step re-syncs through the
// classify-inside Update or RebuildXY (picked by that index's own V/R
// under the same rule) until ReleaseIndex parks it, and which Reset
// rebuilds and re-arms; UnbindIndex drops it for good. SetRadius instead moves the world's own index to
// a new radius, keeping the population, RNG slab and positions.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"manhattanflood/internal/faultinject"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/graph"
	"manhattanflood/internal/mobility"
	"manhattanflood/internal/panicsafe"
	"manhattanflood/internal/spatialindex"
)

// Params configures a World.
type Params struct {
	// N is the number of agents, N >= 1.
	N int
	// L is the square side length.
	L float64
	// R is the transmission radius (used to size the neighbor index).
	R float64
	// V is the agent speed per time unit.
	V float64
	// Seed drives all randomness; identical Params yield identical runs.
	Seed uint64
	// Workers sets the number of goroutines used to step agents. 0 or 1
	// steps sequentially. Because every agent owns an independent RNG
	// stream and writes only its own slot, parallel stepping is exactly
	// deterministic and bit-identical to sequential stepping.
	Workers int
	// Tiles, when positive, partitions the torus into Tiles x Tiles tiles
	// (spatialindex.Tiling): the index shards its delta sync over the
	// workers, and the flood sweep skips every tile with no frontier —
	// the scaling mode for sparse floods past ~10^5 agents. Rebuilds use
	// the flat counting sort either way. The tile count is clamped to the
	// bucket grid. Tiled and
	// flat worlds are bit-identical at any Tiles and Workers value (same
	// positions, same index state, same flooding outcome); Tiles only
	// changes how the state is computed. 0 keeps the flat index.
	Tiles int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("sim: N must be at least 1, got %d", p.N)
	}
	if p.L <= 0 || math.IsNaN(p.L) || math.IsInf(p.L, 0) {
		return fmt.Errorf("sim: L must be positive and finite, got %v", p.L)
	}
	if p.R <= 0 || math.IsNaN(p.R) || math.IsInf(p.R, 0) {
		return fmt.Errorf("sim: R must be positive and finite, got %v", p.R)
	}
	if b := spatialindex.GridBuckets(p.L, p.R); b > spatialindex.MaxBuckets {
		return fmt.Errorf("sim: L/R = %v needs a grid of %.4g index buckets, over the cap of %d", p.L/p.R, b, spatialindex.MaxBuckets)
	}
	if p.V <= 0 || math.IsNaN(p.V) || math.IsInf(p.V, 0) {
		return fmt.Errorf("sim: V must be positive and finite, got %v", p.V)
	}
	if p.Workers < 0 {
		return fmt.Errorf("sim: Workers must be non-negative, got %d", p.Workers)
	}
	if p.Tiles < 0 {
		return fmt.Errorf("sim: Tiles must be non-negative, got %d", p.Tiles)
	}
	return nil
}

// ModelFactory builds a mobility model for a World's (L, V); it lets the
// caller choose the model and its options without sim importing the choice.
type ModelFactory func(cfg mobility.Config) (mobility.Model, error)

// MRWPFactory is the default factory: the paper's Manhattan Random
// Way-Point model with stationary (perfect-simulation) initialization.
func MRWPFactory(opts ...mobility.MRWPOption) ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewMRWP(cfg, opts...)
	}
}

// RWPFactory builds the straight-line RWP baseline.
func RWPFactory(opts ...mobility.RWPOption) ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewRWP(cfg, opts...)
	}
}

// PausedMRWPFactory builds the MRWP variant with Uniform(0, maxPause)
// way-point pauses, stationary-initialized.
func PausedMRWPFactory(maxPause float64) ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewPausedMRWP(cfg, maxPause)
	}
}

// RandomWalkFactory builds the random-walk baseline.
func RandomWalkFactory() ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewRandomWalk(cfg)
	}
}

// RandomDirectionFactory builds the random-direction baseline.
func RandomDirectionFactory() ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewRandomDirection(cfg)
	}
}

// seedStride separates per-agent PCG streams split from the world seed.
const seedStride = 0x9e3779b97f4a7c15

// deltaUpdateMaxMoverFraction is the predicted per-step bucket-mover
// fraction below which Step maintains the neighbor index incrementally
// (spatialindex.Index.Update) instead of re-running the counting sort. An
// agent moves at most V per step against a bucket side of R, so the mover
// fraction of the moving population is about V/R; the prediction is
// taken before the step's sync, from V/R and (for resting models) the
// dirty bitmap. 5% sits in the measured crossover band of the two paths
// (see the Update10k{None,Slow,Mid,Hot} benchmarks in
// internal/spatialindex). spatialindex.UpdateFallbackFraction is the
// separate per-step guard on the movers Update actually observes. Either
// path yields bit-identical index state; this constant only picks the
// cheaper one.
const deltaUpdateMaxMoverFraction = 0.05

// World is a population of agents stepped in lockstep.
type World struct {
	params     Params
	model      mobility.Model
	pop        mobility.Population // all mutable agent state, SoA
	cells      []int32             // fused classify output: per-agent bucket ids
	pcgs       []rand.PCG          // per-agent RNG streams, by value; pop keeps &pcgs[i]
	x, y       []float64           // SoA positions, indexed by agent id
	dirty      []bool              // agents whose position changed this step (resting models only)
	neverRests bool                // model guarantees every agent moves every step
	index      *spatialindex.Index
	// bound are the further indexes at other radii (BindIndex): each is
	// re-synced after every Step while live, and rebuilt and re-armed by
	// Reset.
	bound []boundIndex
	step  int
	// fan runs the parallel stepping workers and forwards their panics
	// onto the goroutine that called Step, so a poisoned agent fails its
	// trial with a diagnosable report instead of crashing the process. A
	// field, with its pass body built once, so the parallel step stays
	// allocation-free.
	fan       panicsafe.Fanout
	stepPopFn func(shard, lo, hi int)
	// stepHook, when set (SetStepHook), runs at the very end of Step, after
	// the index sync and the step-counter increment: the X/Y slices and the
	// neighbor index are consistent for the step just completed.
	stepHook func()
}

// boundIndex is one BindIndex entry: the index and whether Step syncs it.
type boundIndex struct {
	ix   *spatialindex.Index
	live bool
}

// NewWorld creates a world of p.N agents using the given mobility model
// factory (nil means MRWPFactory()).
func NewWorld(p Params, factory ModelFactory) (*World, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		factory = MRWPFactory()
	}
	model, err := factory(mobility.Config{L: p.L, V: p.V})
	if err != nil {
		return nil, fmt.Errorf("sim: building model: %w", err)
	}
	ix, err := newIndex(p)
	if err != nil {
		return nil, err
	}
	w := &World{
		params:     p,
		model:      model,
		pop:        model.NewPopulation(p.N),
		cells:      make([]int32, p.N),
		pcgs:       make([]rand.PCG, p.N),
		x:          make([]float64, p.N),
		y:          make([]float64, p.N),
		index:      ix,
		neverRests: model.NeverRests(),
	}
	w.stepPopFn = w.stepPopRange
	if !w.neverRests {
		// A model that can rest needs the per-agent dirty bitmap so resting
		// agents are skipped by the index's delta update. When every agent
		// moves every step the bitmap carries no information, and leaving
		// View.Dirty nil erases its bookkeeping (the clear, the per-agent
		// store, and the sampling scan in syncIndex) from the step entirely.
		w.dirty = make([]bool, p.N)
	}
	// All agent state lives in the population's flat slices, positions
	// canonically in the view; the cells buffer receives the fused
	// advance→classify pass.
	w.pop.Bind(mobility.View{X: w.x, Y: w.y, Dirty: w.dirty})
	w.initAgents()
	return w, nil
}

// initAgents seeds every per-agent PCG stream from the world seed, draws
// each agent's initial state from it (InitAgent publishes the initial
// position), and rebuilds the index. The streams live by value in one
// slab; the population keeps a pointer into it per agent, so the world
// allocates no object per agent and the GC traces none.
func (w *World) initAgents() {
	for i := range w.pcgs {
		// Independent per-agent PCG streams split from the world seed
		// (PCG.Seed is exactly what rand.NewPCG does).
		w.pcgs[i].Seed(w.params.Seed, uint64(i)+seedStride)
		w.pop.InitAgent(i, &w.pcgs[i])
	}
	w.step = 0
	w.index.RebuildXY(w.x, w.y)
	for i := range w.bound {
		w.bound[i].ix.RebuildXY(w.x, w.y)
		w.bound[i].live = true
	}
}

// newIndex builds the world's own neighbor index for p: a grid at p.R,
// tiled when p.Tiles is set.
func newIndex(p Params) (*spatialindex.Index, error) {
	ix, err := spatialindex.New(p.L, p.R)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if p.Tiles > 0 {
		workers := p.Workers
		if workers < 1 {
			workers = 1
		}
		if _, err := ix.EnableTiling(p.Tiles, workers); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	return ix, nil
}

// indexAt builds an index at radius r over the world's square, tiled
// like the world's own, rebuilt from the current positions.
func (w *World) indexAt(r float64) (*spatialindex.Index, error) {
	p := w.params
	p.R = r
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ix, err := newIndex(p)
	if err != nil {
		return nil, err
	}
	ix.RebuildXY(w.x, w.y)
	return ix, nil
}

// SetRadius moves the world's own index to radius r: Params().R becomes
// r and a fresh index at r is built from the current positions. The
// model, population, RNG slab and positions are kept, so a caller that
// switches radius between trials pays one index instead of a new world.
// Bound indexes are unaffected. The previous Index is no longer synced.
func (w *World) SetRadius(r float64) error {
	ix, err := w.indexAt(r)
	if err != nil {
		return err
	}
	w.index = ix
	w.params.R = r
	return nil
}

// BindIndex builds a further neighbor index over the world's agents at
// radius r, rebuilt from the current positions, and binds it: every Step
// re-syncs it until ReleaseIndex, and every Reset rebuilds and re-arms
// it. The world's own index (Index, at Params().R) is unaffected. A bound
// index costs its own sync per step; the choice between the delta patch
// and the rebuild is made from its own V/R. A tiled world binds nothing
// and returns an error.
func (w *World) BindIndex(r float64) (*spatialindex.Index, error) {
	if w.params.Tiles > 0 {
		return nil, fmt.Errorf("sim: a tiled world cannot bind a further index")
	}
	ix, err := w.indexAt(r)
	if err != nil {
		return nil, err
	}
	w.bound = append(w.bound, boundIndex{ix: ix, live: true})
	return ix, nil
}

// ReleaseIndex stops syncing the bound index ix until the next Reset,
// which rebuilds it and syncs it again: a flood that has finished its
// trial stops costing the world anything. ix goes stale at the next Step
// and must not be read until then. Indexes the world does not hold bound
// are ignored.
func (w *World) ReleaseIndex(ix *spatialindex.Index) {
	for i := range w.bound {
		if w.bound[i].ix == ix {
			w.bound[i].live = false
		}
	}
}

// UnbindIndex drops the bound index ix for good: no later Step syncs it
// and no Reset rebuilds it, so a caller that moves its lanes to other
// radii keeps the world's bound indexes down to the ones its lanes read.
// Indexes the world does not hold bound are ignored.
func (w *World) UnbindIndex(ix *spatialindex.Index) {
	w.bound = slices.DeleteFunc(w.bound, func(b boundIndex) bool { return b.ix == ix })
}

// Reset re-draws every agent from the given seed in place, reusing the
// model, the population, the per-agent RNGs, the position slices and the
// neighbor index. After Reset the world is bit-identical to a fresh
// NewWorld with the same parameters and that seed: Reset(s) followed by
// any step sequence yields exactly the trajectories of a new world seeded
// s. Time restarts at 0. Previously returned Positions snapshots are
// unaffected; the live X/Y slices, the Index and every bound index are
// rebuilt in place, and released bound indexes are synced again.
func (w *World) Reset(seed uint64) {
	w.params.Seed = seed
	// InitAgent re-draws slot i in place from the reseeded stream,
	// consuming exactly the draws of a fresh world's initialization.
	w.initAgents()
}

// Params returns the world's parameters.
func (w *World) Params() Params { return w.params }

// ModelName returns the mobility model's name.
func (w *World) ModelName() string { return w.model.Name() }

// N returns the number of agents.
func (w *World) N() int { return len(w.x) }

// Time returns the number of steps taken so far.
func (w *World) Time() int { return w.step }

// Step advances every agent by one time unit and re-synchronizes the
// neighbor index. The index is maintained incrementally: agents move at
// most V per step, so most keep their grid bucket, and the world feeds the
// index's delta-update path the per-agent dirty bits collected by the
// mobility layer during the move (spatialindex.Index.Update; bit-identical
// to a full rebuild, with an automatic counting-sort fallback when too
// many agents changed bucket). Models that report NeverRests — every agent
// moves every step, so every bit would be set — skip the bitmap entirely:
// no clear, no per-agent store, no sampling scan; the index path is picked
// on V/R alone and the resulting state is bit-identical either way. With
// Params.Workers > 1 the agent moves run on that many goroutines; the
// result is bit-identical to sequential stepping because agents are fully
// independent and each writes only its own position slot and dirty bit.
func (w *World) Step() {
	if !w.neverRests {
		clear(w.dirty)
	}
	n := len(w.x)
	if w.params.Workers > 1 && n >= 2*w.params.Workers {
		w.fan.Run(w.params.Workers, n, w.stepPopFn)
	} else {
		w.stepPopRange(0, 0, n)
	}
	w.syncIndex()
	for i := range w.bound {
		if b := &w.bound[i]; b.live {
			w.syncBound(b.ix)
		}
	}
	w.step++
	if w.stepHook != nil {
		w.stepHook()
	}
}

// SetStepHook installs (or, with nil, removes) a function invoked at the
// end of every Step, once the positions, neighbor index and step counter
// all reflect the completed step. The hook runs on the goroutine that
// called Step and must not mutate the world; it may read the live X/Y
// slices. At most one hook is supported — callers that need fan-out
// compose it themselves. It times the world step inside a flood step, so
// its caller is the per-layer benchmark split (perfbench); observers of
// a whole simulation attach to the facade's Simulation instead, which
// emits after each step without a hook.
func (w *World) SetStepHook(h func()) { w.stepHook = h }

// fuseChunk is the advance→classify granularity of the population step:
// the world steps this many agents, then immediately classifies their
// fresh coordinates into grid buckets while they are still in L1/L2 (two
// 8 KiB coordinate spans per chunk). One chunk is large enough that the
// classify kernel runs at full vector width and the loop overhead
// vanishes, and small enough that the positions never round-trip
// through memory between the advance and the classify.
const fuseChunk = 1024

// stepPopRange advances agents [lo, hi), one shard of the parallel step,
// and runs the fused classify pass. Fusing applies exactly when every
// agent republishes every step (NeverRests): then the whole cells buffer
// is fresh and syncIndex feeds it to the index's precomputed-cells paths.
// A resting model leaves most positions untouched, so classifying
// everyone would be wasted work — its syncIndex keeps the dirty-bitmap
// delta path instead.
func (w *World) stepPopRange(_, lo, hi int) {
	for clo := lo; clo < hi; clo += fuseChunk {
		chi := clo + fuseChunk
		if chi > hi {
			chi = hi
		}
		w.pop.StepRange(clo, chi)
		if w.neverRests {
			// Shards own disjoint index ranges, so the classify
			// writes race-free into the shared cells buffer.
			w.index.ClassifyInto(w.cells[clo:chi], w.x[clo:chi], w.y[clo:chi])
		}
	}
}

// syncIndex re-synchronizes the neighbor index with the stepped positions,
// choosing between the delta patch and the full counting-sort rebuild by
// predicted mover fraction (deltaSync). Both paths produce bit-identical
// index state — which is exactly what the fault-injection hook below
// exercises: under `-tags faultinject` a test can force any step onto the
// full rebuild (the delta path's bail destination) and assert results do
// not change. Compiled out otherwise.
func (w *World) syncIndex() {
	if faultinject.Active && faultinject.FireIndexSyncBail() {
		w.index.RebuildXY(w.x, w.y)
		return
	}
	delta := w.deltaSync(w.params.R)
	if w.neverRests {
		// Fused population step: every bucket id is already in cells,
		// computed chunk-by-chunk while the coordinates were cache-hot.
		// Both consumers are bit-identical to their classify-inside
		// twins.
		if delta {
			w.index.UpdateCells(w.x, w.y, w.cells, nil)
		} else {
			w.index.RebuildXYCells(w.x, w.y, w.cells)
		}
		return
	}
	if delta {
		// The dirty bitmap (exact, since every position write flows
		// through the population's view) lets the index skip resting
		// agents entirely.
		w.index.Update(w.x, w.y, w.dirty)
		return
	}
	w.index.RebuildXY(w.x, w.y)
}

// syncBound re-synchronizes a bound index (BindIndex). The fused cells
// buffer holds the own index's bucket ids, which differ at another
// radius, so a bound index classifies inside its sync; deltaSync picks
// the path from its own V/R, and the fault hook can force the rebuild
// here too.
func (w *World) syncBound(ix *spatialindex.Index) {
	if (faultinject.Active && faultinject.FireIndexSyncBail()) || !w.deltaSync(ix.Radius()) {
		ix.RebuildXY(w.x, w.y)
		return
	}
	ix.Update(w.x, w.y, w.dirty)
}

// deltaSync is the delta/rebuild rule of every index the world syncs:
// whether an index at radius r takes the delta patch this step. The
// predicted mover fraction is the moving fraction times V/R. Slow agents
// (V/R at or under deltaUpdateMaxMoverFraction) take the patch even if
// everyone moved. When every agent moves every step (NeverRests), V/R
// alone decides. Fast agents that can rest take the patch only when
// enough of the population sat out the step (way-point pauses): the
// moving fraction is estimated from a strided sample of the dirty bitmap
// — the decision has a 2x margin either way, so a rough estimate
// suffices and the common everyone-moves case does not pay a full O(n)
// scan.
func (w *World) deltaSync(r float64) bool {
	vOverR := w.params.V / r
	if vOverR <= deltaUpdateMaxMoverFraction {
		return true
	}
	if w.neverRests {
		return false
	}
	n := len(w.dirty)
	const stride = 16
	moving := 0
	sampled := 0
	for i := 0; i < n; i += stride {
		sampled++
		if w.dirty[i] {
			moving++
		}
	}
	return float64(moving)*vOverR <= deltaUpdateMaxMoverFraction*float64(sampled)
}

// Position returns agent i's current position.
func (w *World) Position(i int) geom.Point { return geom.Point{X: w.x[i], Y: w.y[i]} }

// X returns the live X-coordinate slice, indexed by agent id. It is
// rewritten in place by Step and Reset; callers needing a stable snapshot
// use Positions.
func (w *World) X() []float64 { return w.x }

// Y returns the live Y-coordinate slice, indexed by agent id.
func (w *World) Y() []float64 { return w.y }

// Positions returns a freshly allocated snapshot of all agent positions.
// The snapshot stays valid (and unchanged) across Step and Reset calls; it
// is the compatibility accessor for traces, examples and cold paths — hot
// loops read X/Y or the index's CSR coordinate spans instead.
func (w *World) Positions() []geom.Point {
	out := make([]geom.Point, len(w.x))
	for i := range out {
		out[i] = geom.Point{X: w.x[i], Y: w.y[i]}
	}
	return out
}

// Index returns the neighbor index for the current step. It is valid until
// the next Step call.
func (w *World) Index() *spatialindex.Index { return w.index }

// SnapshotGraph builds the disk graph G_t of the current step. The graph
// copies the coordinates (in its index rebuild), so it remains a
// consistent snapshot across future Step and Reset calls.
func (w *World) SnapshotGraph() (*graph.Disk, error) {
	return graph.NewDiskXY(w.x, w.y, w.params.L, w.params.R)
}

// NearestAgent returns the id of the agent closest to pt (ties broken by
// lowest id). It scans all agents; intended for source placement, not hot
// loops.
func (w *World) NearestAgent(pt geom.Point) int {
	best, bestD := 0, math.Inf(1)
	for i := range w.x {
		dx, dy := w.x[i]-pt.X, w.y[i]-pt.Y
		if d := dx*dx + dy*dy; d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
