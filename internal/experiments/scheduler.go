package experiments

// Scheduler seams: cell-granular access to the crash-safe sweep runner
// for external schedulers — concretely the multi-tenant sweep service
// (internal/service), which interleaves cells of many tenants' sweeps
// over a shared worker pool instead of running one sweep start-to-finish.
// The contract mirrors floodTrials exactly: same derived seeds, same
// checkpoint units, same panic isolation, same aggregation — so a sweep
// assembled one cell at a time, in any order, with any worker count,
// produces byte-identical results to RunSweep.

import (
	"fmt"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/sim"
)

// CellRunner executes single (point, trial) cells of sweep specs with the
// same pooling and panic isolation as the in-process trial runner. One
// runner belongs to one worker goroutine (it is not concurrency-safe);
// across calls it keeps one pooled World + Flooding pair keyed by the
// cell's world parameters without the seed, so consecutive cells at the
// same point parameters hit the zero-allocation Reset path even when they
// belong to different sweeps (different seeds; every trial reseeds the
// world anyway), and a parameter switch rebuilds the pool in place —
// memory stays bounded at one world per worker no matter how many sweeps
// are in flight.
type CellRunner struct {
	shard    int
	pool     trialPool
	part     *cells.Partition
	params   sim.Params // the pool's parameters, Seed cleared
	maxSteps int
	havePool bool
}

// NewCellRunner returns a runner for the given worker shard index (the
// index appears in recovered panic reports, mirroring floodTrials'
// workers).
func NewCellRunner(shard int) *CellRunner {
	return &CellRunner{shard: shard}
}

// Run executes one cell of the spec and returns its durable outcome.
// A panic anywhere inside the trial is recovered into a *PanicError
// carrying (experiment, point, trial, seed, shard) — the caller decides
// how far the poison spreads; the runner itself discards its pooled world
// and rebuilds on the next call. Run never panics for trial-level
// failures.
func (cr *CellRunner) Run(spec SweepSpec, point, trial int) (checkpoint.Result, error) {
	if err := spec.Validate(); err != nil {
		return checkpoint.Result{}, err
	}
	if point < 0 || point >= len(spec.Values) || trial < 0 || trial >= spec.Trials {
		return checkpoint.Result{}, fmt.Errorf("experiments: cell (%d,%d) out of range for %d points x %d trials",
			point, trial, len(spec.Values), spec.Trials)
	}
	src, _ := sweepSource(spec.Source)
	p := spec.pointParams(point)
	key := p
	key.Seed = 0
	if !cr.havePool || key != cr.params || spec.MaxSteps != cr.maxSteps {
		part, err := cells.NewPartition(p.L, p.R, p.N)
		if err != nil {
			return checkpoint.Result{}, fmt.Errorf("building partition: %w", err)
		}
		cr.pool = trialPool{}
		cr.part = part
		cr.params = key
		cr.maxSteps = spec.MaxSteps
		cr.havePool = true
	}
	o := cr.pool.runIsolated(spec.Experiment(), point, cr.shard, p, nil,
		cr.part, trial, spec.MaxSteps, src)
	if o.err != nil {
		return checkpoint.Result{}, o.err
	}
	return checkpointResult(o.res), nil
}

// AggregateSweep assembles the full sweep result from per-cell outcomes —
// the lookup is typically a checkpoint journal. Every cell must be
// present; a missing cell is an error naming it, because aggregating a
// partial sweep silently would break the byte-identity guarantee the
// service's restart-resume leans on. The numbers are bit-identical to
// what RunSweep computes from the same outcomes (shared aggregation
// path).
func AggregateSweep(spec SweepSpec, lookup func(point, trial int) (checkpoint.Result, bool)) (SweepResult, error) {
	var res SweepResult
	if err := spec.Validate(); err != nil {
		return res, err
	}
	for i := range spec.Values {
		outcomes := make([]trialOutcome, spec.Trials)
		for t := 0; t < spec.Trials; t++ {
			rec, ok := lookup(i, t)
			if !ok {
				return res, fmt.Errorf("experiments: aggregate: cell point=%d trial=%d has no recorded outcome", i, t)
			}
			outcomes[t] = trialOutcome{res: resultFromCheckpoint(rec)}
		}
		fp := floodPoint{Trials: spec.Trials}
		aggregateOutcomes(&fp, outcomes)
		res.Points = append(res.Points, spec.point(i, fp))
	}
	return res, nil
}

// CheckJournal verifies that every entry recorded in j was produced by
// exactly this sweep: same experiment key, point/trial within range, and
// the same derived seed and spec fingerprint. It is the resume guard —
// a journal recorded under different flags (another n, radius grid, step
// budget, or seed) fails here with a diagnosable mismatch instead of
// silently replaying foreign trials into the aggregation.
func (s SweepSpec) CheckJournal(j *checkpoint.Journal) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, e := range j.Entries() {
		if e.Experiment != s.Experiment() {
			return fmt.Errorf("journal records experiment %q, flags describe %q", e.Experiment, s.Experiment())
		}
		if e.Point < 0 || e.Point >= len(s.Values) || e.Trial < 0 || e.Trial >= s.Trials {
			return fmt.Errorf("journal records point=%d trial=%d, outside the %d values x %d trials the flags describe",
				e.Point, e.Trial, len(s.Values), s.Trials)
		}
		want := s.Unit(e.Point, e.Trial)
		if e.Unit != want {
			return fmt.Errorf("journal spec mismatch at point=%d trial=%d: recorded {%s seed=%#x}, flags give {%s seed=%#x}",
				e.Point, e.Trial, e.Spec, e.Seed, want.Spec, want.Seed)
		}
	}
	return nil
}
