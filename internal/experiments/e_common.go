package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/core"
	"manhattanflood/internal/faultinject"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/spatialindex"
	"manhattanflood/internal/stats"
)

// floodPoint aggregates flooding results over trials at one parameter
// point.
type floodPoint struct {
	T         stats.Summary // flooding time over completed trials
	CZ        stats.Summary // Central Zone completion time (if tracked)
	Lag       stats.Summary // Suburb lag (if tracked)
	Completed int
	Trials    int
}

// sourceKind selects where the flooding source is placed.
type sourceKind uint8

const (
	sourceCentral sourceKind = iota
	sourceSuburb
	sourceFirst // agent 0: a stationary-law random position
)

// floodGroup is what floodTrials fans out: sweep points that share every
// world parameter but R. Trial t of every point runs at world seed
// trialSeed(p.Seed, t), and R reaches a world only through its index, so
// the points of a group flood over one trajectory per trial. Lane l is
// point first+l at radius radii[l]; nil radii is the one point p.
type floodGroup struct {
	exp           string
	first         int
	p             sim.Params // the points' shared parameters; R is per lane
	radii         []float64
	factory       sim.ModelFactory
	trials        int
	maxSteps      int
	src           sourceKind
	withPartition bool
}

// lane returns the world parameters of lane l's point.
func (g *floodGroup) lane(l int) sim.Params {
	p := g.p
	p.R = g.radii[l]
	return p
}

// floodTrials runs g.trials independently seeded trials of every point in
// the group — fanned out over cfg.Workers (default GOMAXPROCS)
// goroutines, since trials share nothing — and aggregates each point's
// results; it returns one aggregate and one error per lane. A worker
// claims trial t and runs all of the group's points as the radius lanes
// of one world (core.Lanes, see lanePool): one Reset per trial, one world
// step per time unit, one index sync and one flood round per unfinished
// lane. Each lane's result is bit-identical to flooding its point on a
// world of its own. When withPartition is set, the Central Zone
// completion time and Suburb lag are tracked too. Output is
// deterministic: per-trial results are keyed by trial index.
//
// g.exp and the lanes' point indexes identify each (point, trial) cell
// for crash-safety purposes: they name the point in recovered panic
// reports and key the checkpoint journal. Every floodTrials call within an
// experiment must use distinct point indexes.
//
// Crash-safety contract (per (point, trial) cell; all three paths leave
// the zero-allocation inner loops untouched):
//
//   - Cancellation: cfg.Ctx is consulted before dispatching each trial.
//     Once canceled, in-flight trials finish and their cells are
//     recorded; the cells of pending trials are abandoned and each point
//     with an abandoned cell returns the context's error.
//   - Panic isolation: a panic is recovered into a *PanicError carrying
//     experiment/point/trial/seed/shard (panics forwarded by panicsafe
//     from the tiled sweep, tiled index and stepping workers included);
//     the process survives and sibling trials complete. A panic in one
//     lane's own start or round fails only that lane's point. A panic in
//     the shared world Reset or step fails every point of the trial, each
//     with its own *PanicError: separate worlds would have stepped the
//     same trajectory into it.
//   - Checkpoint/resume: with cfg.Journal set, every completed cell is
//     recorded, and a cell already in the journal is replayed instead of
//     flooded again (a trial whose cells are all recorded is not run at
//     all). Trials are independently seeded, so the resumed aggregate is
//     byte-identical to an uninterrupted run.
//
// Each worker pools one world and one flood per lane across its trials
// (lanePool); after a recovered panic the pool is discarded and rebuilt
// for the next trial.
func floodTrials(cfg Config, g floodGroup) ([]floodPoint, []error) {
	if len(g.radii) == 0 {
		g.radii = []float64{g.p.R}
	}
	lanes := len(g.radii)
	aggs := make([]floodPoint, lanes)
	errs := make([]error, lanes)
	for l := range aggs {
		aggs[l].Trials = g.trials
	}
	parts := make([]*cells.Partition, lanes)
	if g.withPartition {
		for l := range parts {
			p := g.lane(l)
			part, err := cells.NewPartition(p.L, p.R, p.N)
			if err != nil {
				for l := range errs {
					errs[l] = fmt.Errorf("building partition: %w", err)
				}
				return aggs, errs
			}
			parts[l] = part
		}
	}

	// Resume: map cells onto journal units (only when a journal is
	// attached — the happy path allocates nothing extra).
	var unitOf func(lane, trial int) checkpoint.Unit
	if cfg.Journal != nil {
		specs := make([]string, lanes)
		for l := range specs {
			specs[l] = trialSpec(g.lane(l), g.maxSteps, g.src, g.withPartition)
		}
		unitOf = func(lane, trial int) checkpoint.Unit {
			return checkpoint.Unit{Experiment: g.exp, Point: g.first + lane, Trial: trial,
				Seed: trialSeed(g.p.Seed, trial), Spec: specs[lane]}
		}
	}

	outcomes := make([][]trialOutcome, lanes) // [lane][trial]
	for l := range outcomes {
		outcomes[l] = make([]trialOutcome, g.trials)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > g.trials {
		workers = g.trials
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			pool := newLanePool(&g, parts)
			pool.afterStep = cfg.afterStep
			cell := make([]trialOutcome, lanes) // the claimed trial's cells, by lane
			for trial := range next {
				for l := range cell {
					cell[l] = outcomes[l][trial]
				}
				pool.runTrial(shard, trial, cell)
				for l, o := range cell {
					outcomes[l][trial] = o
					if o.journaled {
						continue
					}
					if o.err == nil && unitOf != nil {
						cfg.Journal.Record(unitOf(l, trial), checkpointResult(o.res))
					}
					if cfg.afterTrial != nil {
						cfg.afterTrial()
					}
				}
			}
		}(wk)
	}
	abandoned := make([]int, lanes)
	for trial := 0; trial < g.trials; trial++ {
		live := 0
		for l := range outcomes {
			if unitOf != nil {
				if rec, ok := cfg.Journal.Lookup(unitOf(l, trial)); ok {
					outcomes[l][trial] = trialOutcome{res: resultFromCheckpoint(rec), journaled: true}
					continue
				}
			}
			live++
		}
		if live == 0 {
			continue
		}
		// Graceful drain: once the context is canceled no further trial is
		// dispatched (the ones already handed to workers run to completion
		// and are recorded); the remaining cells are abandoned.
		if err := cfg.canceled(); err != nil {
			for l := range outcomes {
				if !outcomes[l][trial].journaled {
					outcomes[l][trial] = trialOutcome{err: err, abandoned: true}
					abandoned[l]++
				}
			}
			continue
		}
		next <- trial
	}
	close(next)
	wg.Wait()

	for l := range outcomes {
		// A real trial failure (panic or construction error) outranks
		// cancellation in the report: it names the poisoned trial.
		for _, o := range outcomes[l] {
			if o.err != nil && !o.abandoned {
				errs[l] = o.err
				break
			}
		}
		if errs[l] == nil && abandoned[l] > 0 {
			errs[l] = fmt.Errorf("%s point %d: %d of %d trials abandoned: %w",
				g.exp, g.first+l, abandoned[l], g.trials, cfg.canceled())
		}
		if errs[l] == nil {
			aggregateOutcomes(&aggs[l], outcomes[l])
		}
	}
	return aggs, errs
}

// floodOne runs the trials of the single point p: floodTrials over a
// group of one.
func floodOne(cfg Config, exp string, point int, p sim.Params, factory sim.ModelFactory,
	trials, maxSteps int, src sourceKind, withPartition bool) (floodPoint, error) {
	aggs, errs := floodTrials(cfg, floodGroup{exp: exp, first: point, p: p, factory: factory,
		trials: trials, maxSteps: maxSteps, src: src, withPartition: withPartition})
	return aggs[0], errs[0]
}

// aggregateOutcomes folds per-trial results into the point aggregate.
// This is THE aggregation — floodTrials and AggregateSweep both call it,
// so a sweep assembled cell-by-cell from a journal is byte-identical to
// one the in-process runner produced.
func aggregateOutcomes(agg *floodPoint, outcomes []trialOutcome) {
	var times, czs, lags []float64
	for _, o := range outcomes {
		if !o.res.Completed {
			continue
		}
		agg.Completed++
		times = append(times, float64(o.res.Time))
		if o.res.CZTime >= 0 {
			czs = append(czs, float64(o.res.CZTime))
		}
		if o.res.SuburbLag >= 0 {
			lags = append(lags, float64(o.res.SuburbLag))
		}
	}
	if len(times) > 0 {
		agg.T, _ = stats.Summarize(times)
	}
	if len(czs) > 0 {
		agg.CZ, _ = stats.Summarize(czs)
	}
	if len(lags) > 0 {
		agg.Lag, _ = stats.Summarize(lags)
	}
}

// trialOutcome is one (point, trial) cell's flooding result or error;
// journaled marks cells replayed from the checkpoint journal, abandoned
// the cells never dispatched because the run was canceled first.
type trialOutcome struct {
	res       core.Result
	err       error
	journaled bool
	abandoned bool
}

// trialSeed derives trial t's world seed from the point's base seed.
func trialSeed(base uint64, trial int) uint64 {
	return base + uint64(trial)*0x9e3779b97f4a7c15
}

// lanePool is one worker's pooled world and radius lanes for a group: the
// world at the group's smallest radius — T(R) is non-increasing in R on
// one trajectory, so the world's own index serves the lane that runs
// longest — one index bound per other radius (sim.World.BindIndex), one
// flood per lane and the core.Lanes that drives them. The first trial
// builds it; every later trial reseeds it in place (World.Reset rebuilds
// every bound index, Flooding.Reset each lane), which is bit-identical to
// building it fresh and allocates nothing. Memory: one world per worker,
// plus one index per lane at another radius. After a recovered panic the
// pool is discarded — its state can no longer be trusted — and rebuilt
// for the next trial.
type lanePool struct {
	g      *floodGroup
	parts  []*cells.Partition // per lane; nil entries without a partition
	w      *sim.World
	bound  []*spatialindex.Index // the indexes the lanes bound to w
	floods []*core.Flooding
	lanes  *core.Lanes
	run    []bool // lanes running the current trial
	// poisoned marks a pool a lane panic went through: it is discarded
	// once the trial's other lanes finish.
	poisoned bool
	// afterStep is Config.afterStep: the test seam that observes the
	// lanes after every world step.
	afterStep func(*lanePool)
}

func newLanePool(g *floodGroup, parts []*cells.Partition) *lanePool {
	return &lanePool{g: g, parts: parts, run: make([]bool, len(g.radii))}
}

// runTrial runs one trial of the group: every lane whose cell is not
// journaled (out[l].journaled) floods over the pooled world reset to the
// trial's seed, and out[l] receives lane l's outcome.
func (lp *lanePool) runTrial(shard, trial int, out []trialOutcome) {
	g := lp.g
	seed := trialSeed(g.p.Seed, trial)
	// guard runs fn, recovering a panic into a *PanicError that names
	// lane l's point.
	guard := func(l int, fn func() error) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = newPanicError(g.exp, g.first+l, trial, seed, shard, r)
			}
		}()
		return fn()
	}
	for l := range out {
		lp.run[l] = !out[l].journaled
	}
	var source int
	err := guard(0, func() (err error) {
		source, err = lp.reset(shard, seed)
		return err
	})
	if err != nil {
		lp.failRunning(out, err)
		return
	}
	for l := range out {
		if !lp.run[l] {
			continue
		}
		err := guard(l, func() error {
			if faultinject.Active {
				faultinject.FireTrialStart(faultinject.Trial{
					Experiment: g.exp, Point: g.first + l, Trial: trial, Seed: seed, Shard: shard})
			}
			return lp.floods[l].Reset(source)
		})
		if err != nil {
			out[l] = trialOutcome{err: err}
			lp.run[l] = false
			lp.poisoned = true
		}
	}
	if err := guard(0, lp.runLanes); err != nil {
		lp.failRunning(out, err)
		return
	}
	for l := range out {
		if !lp.run[l] {
			continue
		}
		if v, stack := lp.lanes.Panic(l); v != nil {
			pe := newPanicError(g.exp, g.first+l, trial, seed, shard, v)
			pe.Stack = stack
			out[l] = trialOutcome{err: pe}
			lp.poisoned = true
			continue
		}
		out[l] = trialOutcome{res: lp.lanes.Result(l)}
	}
	if lp.poisoned {
		lp.discard()
	}
}

// reset is the shared start of a trial: it builds the pool on first use
// and reseeds it otherwise, and picks the source agent, which depends on
// the positions alone and so is the same in every lane.
func (lp *lanePool) reset(shard int, seed uint64) (source int, err error) {
	if faultinject.Active {
		faultinject.FireWorkerStall(shard)
	}
	if lp.w == nil {
		if err := lp.build(seed); err != nil {
			return 0, err
		}
	} else {
		lp.w.Reset(seed)
	}
	switch lp.g.src {
	case sourceCentral:
		source, _ = core.SourcePair(lp.w)
	case sourceSuburb:
		_, source = core.SourcePair(lp.w)
	}
	return source, nil
}

// build constructs the pooled world at the group's smallest radius,
// seeded for the first trial, and its lanes.
func (lp *lanePool) build(seed uint64) error {
	wp := lp.g.p
	wp.R = slices.Min(lp.g.radii)
	wp.Seed = seed
	w, err := sim.NewWorld(wp, lp.g.factory)
	if err != nil {
		return err
	}
	lp.w = w
	return lp.buildLanes()
}

// buildLanes builds one flood per lane over the pooled world: on the
// world's own index at its radius, on a bound index at any other. A lane
// takes over an index an earlier build bound at its radius, one lane per
// index, and the indexes no lane takes are unbound: the world holds one
// bound index per lane off its own radius, whatever radii the pool
// served before. The floods start from agent 0; every trial resets them
// to its source.
func (lp *lanePool) buildLanes() error {
	spare := lp.bound
	lp.bound = nil
	floods := make([]*core.Flooding, len(lp.g.radii))
	for l, r := range lp.g.radii {
		opts := []core.FloodOption{core.WithPartition(lp.parts[l])}
		if r != lp.w.Params().R {
			k := slices.IndexFunc(spare, func(ix *spatialindex.Index) bool { return ix.Radius() == r })
			var ix *spatialindex.Index
			if k >= 0 {
				ix = spare[k]
				spare = slices.Delete(spare, k, k+1)
			} else {
				var err error
				if ix, err = lp.w.BindIndex(r); err != nil {
					return err
				}
			}
			lp.bound = append(lp.bound, ix)
			opts = append(opts, core.OnIndex(ix))
		}
		f, err := core.NewFlooding(lp.w, 0, opts...)
		if err != nil {
			return err
		}
		floods[l] = f
	}
	for _, ix := range spare {
		lp.w.UnbindIndex(ix)
	}
	lanes, err := core.NewLanes(lp.w, floods)
	if err != nil {
		return err
	}
	lp.floods, lp.lanes = floods, lanes
	return nil
}

// runLanes steps the shared world until every running lane is done or the
// step budget is spent. A panic in a lane's round stays in that lane
// (core.Lanes.Panic); one that reaches here is the shared step's.
func (lp *lanePool) runLanes() error {
	if err := lp.lanes.Start(lp.g.maxSteps, lp.run); err != nil {
		return err
	}
	for lp.lanes.Due() {
		lp.lanes.Step()
		if lp.afterStep != nil {
			lp.afterStep(lp)
		}
	}
	return nil
}

// failRunning fails every lane running this trial with err — a
// *PanicError is copied per lane, each naming its own point — and
// discards the pool.
func (lp *lanePool) failRunning(out []trialOutcome, err error) {
	pe, _ := err.(*PanicError)
	for l := range out {
		if !lp.run[l] {
			continue
		}
		laneErr := err
		if pe != nil {
			c := *pe
			c.Point = lp.g.first + l
			laneErr = &c
		}
		out[l] = trialOutcome{err: laneErr}
	}
	lp.discard()
}

// discard drops the pooled world and lanes; the next trial rebuilds them.
func (lp *lanePool) discard() {
	lp.w, lp.bound, lp.floods, lp.lanes, lp.poisoned = nil, nil, nil, nil, false
}

// secondPhaseScale returns the Theorem 3 second-phase regressor
// (L^3 log n) / (R^2 n v) in its Theta form (constants absorbed by the
// fit).
func secondPhaseScale(n int, l, r, v float64) float64 {
	return l * l * l * logf(n) / (r * r * float64(n) * v)
}

// logf returns the natural log of n; a tiny helper to keep call sites
// short.
func logf(n int) float64 { return math.Log(float64(n)) }

// itoa formats an int; a tiny helper for table titles.
func itoa(n int) string { return fmt.Sprintf("%d", n) }

// ftoa formats a float compactly for table titles.
func ftoa(v float64) string { return fmt.Sprintf("%.3g", v) }
