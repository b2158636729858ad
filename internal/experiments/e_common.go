package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/core"
	"manhattanflood/internal/faultinject"
	"manhattanflood/internal/sim"
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

// floodTrials runs `trials` independently seeded flooding runs at the
// given parameters — fanned out over cfg.Workers (default GOMAXPROCS)
// goroutines, since trials share nothing — and aggregates the results.
// When withPartition is set, the Central Zone completion time and Suburb
// lag are tracked too. Output is deterministic: per-trial results are
// keyed by trial index.
//
// exp and point identify this call for crash-safety purposes: they name
// the sweep point in recovered panic reports and key the checkpoint
// journal. Every floodTrials call site within an experiment must use a
// distinct point index.
//
// Crash-safety contract (all three paths leave the zero-allocation inner
// loops untouched — per-trial granularity only):
//
//   - Cancellation: cfg.Ctx is consulted before dispatching each trial.
//     Once canceled, in-flight trials finish and are recorded; pending
//     ones are abandoned and the point returns the context's error.
//   - Panic isolation: a panic inside a trial (including panics forwarded
//     by panicsafe from the tiled sweep, tiled index and stepping workers)
//     is recovered into a *PanicError carrying experiment/point/trial/
//     seed/shard; the point fails with that diagnosable report, the process
//     survives, and sibling trials complete normally.
//   - Checkpoint/resume: with cfg.Journal set, completed trials are
//     recorded and already-recorded trials are replayed instead of re-run.
//     Trials are independently seeded, so the resumed aggregate is
//     byte-identical to an uninterrupted run.
//
// Each worker pools one World and one Flooding across its trials: the
// first trial constructs them, every following trial re-seeds the pair via
// sim.World.Reset + core.Flooding.Reset, which is bit-identical to
// constructing fresh ones (property-tested in the core suite) and removes
// every per-trial allocation. Pooling is what lets the big sweeps (E03,
// E04, E11) stop paying world-construction cost per Monte-Carlo trial.
// After a recovered panic the worker's pooled pair is discarded — its
// state is untrustworthy — and rebuilt fresh for the next trial.
func floodTrials(cfg Config, exp string, point int, p sim.Params, factory sim.ModelFactory,
	trials, maxSteps int, src sourceKind, withPartition bool) (floodPoint, error) {
	agg := floodPoint{Trials: trials}
	var part *cells.Partition
	if withPartition {
		var err error
		part, err = cells.NewPartition(p.L, p.R, p.N)
		if err != nil {
			return agg, fmt.Errorf("building partition: %w", err)
		}
	}

	// Resume: map trials onto journal units (only when a journal is
	// attached — the happy path allocates nothing extra).
	var unitOf func(trial int) checkpoint.Unit
	if cfg.Journal != nil {
		spec := trialSpec(p, maxSteps, src, withPartition)
		unitOf = func(trial int) checkpoint.Unit {
			return checkpoint.Unit{Experiment: exp, Point: point, Trial: trial,
				Seed: trialSeed(p.Seed, trial), Spec: spec}
		}
	}

	outcomes := make([]trialOutcome, trials)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			var pool trialPool
			for trial := range next {
				o := pool.runIsolated(exp, point, shard, p, factory, part, trial, maxSteps, src)
				outcomes[trial] = o
				if o.err == nil && unitOf != nil {
					cfg.Journal.Record(unitOf(trial), checkpointResult(o.res))
				}
				if cfg.afterTrial != nil {
					cfg.afterTrial()
				}
			}
		}(wk)
	}
	abandoned := 0
	for trial := 0; trial < trials; trial++ {
		if unitOf != nil {
			if rec, ok := cfg.Journal.Lookup(unitOf(trial)); ok {
				outcomes[trial] = trialOutcome{res: resultFromCheckpoint(rec)}
				continue
			}
		}
		// Graceful drain: once the context is canceled no further trial is
		// dispatched (the ones already handed to workers run to completion
		// and are recorded); the remaining ones are abandoned.
		if err := cfg.canceled(); err != nil {
			outcomes[trial] = trialOutcome{err: err, abandoned: true}
			abandoned++
			continue
		}
		next <- trial
	}
	close(next)
	wg.Wait()

	// A real trial failure (panic or construction error) outranks
	// cancellation in the report: it names the poisoned trial.
	for trial := range outcomes {
		if err := outcomes[trial].err; err != nil && !outcomes[trial].abandoned {
			return agg, err
		}
	}
	if abandoned > 0 {
		return agg, fmt.Errorf("%s point %d: %d of %d trials abandoned: %w",
			exp, point, abandoned, trials, cfg.canceled())
	}

	aggregateOutcomes(&agg, outcomes)
	return agg, nil
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

// trialOutcome is one trial's flooding result or error; abandoned marks
// trials never dispatched because the run was canceled first.
type trialOutcome struct {
	res       core.Result
	err       error
	abandoned bool
}

// trialSeed derives trial t's world seed from the point's base seed.
func trialSeed(base uint64, trial int) uint64 {
	return base + uint64(trial)*0x9e3779b97f4a7c15
}

// trialPool is one worker's reusable World + Flooding pair.
type trialPool struct {
	w *sim.World
	f *core.Flooding
}

// runIsolated is run wrapped in panic isolation and fault-injection
// hooks: a panic anywhere inside the trial — the mobility step, the index
// sync, the flood sweep, including panics forwarded across the sharded
// worker pools by panicsafe — becomes a structured *PanicError naming
// experiment/point/trial/seed/shard, and the pooled World/Flooding pair is
// discarded because its state can no longer be trusted.
func (tp *trialPool) runIsolated(exp string, point, shard int, p sim.Params,
	factory sim.ModelFactory, part *cells.Partition, trial, maxSteps int,
	src sourceKind) (out trialOutcome) {
	seed := trialSeed(p.Seed, trial)
	defer func() {
		if r := recover(); r != nil {
			tp.w, tp.f = nil, nil
			out = trialOutcome{err: newPanicError(exp, point, trial, seed, shard, r)}
		}
	}()
	if faultinject.Active {
		faultinject.FireWorkerStall(shard)
		faultinject.FireTrialStart(faultinject.Trial{
			Experiment: exp, Point: point, Trial: trial, Seed: seed, Shard: shard})
	}
	return tp.run(p, factory, part, trial, maxSteps, src)
}

// run executes a single seeded flooding run, reusing the pooled world and
// flooding process when they exist.
func (tp *trialPool) run(p sim.Params, factory sim.ModelFactory, part *cells.Partition,
	trial, maxSteps int, src sourceKind) (out trialOutcome) {
	seed := trialSeed(p.Seed, trial)
	if tp.w == nil {
		wp := p
		wp.Seed = seed
		w, err := sim.NewWorld(wp, factory)
		if err != nil {
			out.err = err
			return out
		}
		tp.w = w
	} else {
		tp.w.Reset(seed)
	}
	var source int
	switch src {
	case sourceCentral:
		source, _ = core.SourcePair(tp.w)
	case sourceSuburb:
		_, source = core.SourcePair(tp.w)
	default:
		source = 0
	}
	if tp.f == nil {
		var opts []core.FloodOption
		if part != nil {
			opts = append(opts, core.WithPartition(part))
		}
		f, err := core.NewFlooding(tp.w, source, opts...)
		if err != nil {
			out.err = err
			return out
		}
		tp.f = f
	} else if err := tp.f.Reset(source); err != nil {
		out.err = err
		return out
	}
	out.res, out.err = tp.f.Run(maxSteps)
	return out
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
