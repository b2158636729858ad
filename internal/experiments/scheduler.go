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
// same pooling and panic isolation as the in-process trial runner: each
// cell is a group of one lane (floodTrials' lanePool). One runner belongs
// to one worker goroutine (it is not concurrency-safe). Across calls it
// keeps one pooled world and flood, keyed by the cell's world parameters
// without the seed and without R: consecutive cells at the same point
// hit the zero-allocation Reset path even when they belong to different
// sweeps (every trial reseeds the world anyway); a radius switch keeps
// the population, RNG slab and positions and rebuilds only the index
// (sim.World.SetRadius), the partition and the flood; any other
// parameter switch rebuilds the pool. Memory stays bounded at one world
// and one radius per worker no matter how many sweeps are in flight.
type CellRunner struct {
	shard int
	group floodGroup // the pooled lane's group; exp, point and seed follow each cell
	pool  *lanePool
	key   sim.Params // the pool's parameters, Seed and R cleared
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
	key.Seed, key.R = 0, 0
	if cr.pool == nil || key != cr.key {
		cr.group = floodGroup{radii: make([]float64, 1), withPartition: true}
		cr.pool = newLanePool(&cr.group, make([]*cells.Partition, 1))
		cr.key = key
	}
	cr.group.exp, cr.group.first, cr.group.p = spec.Experiment(), point, p
	cr.group.trials, cr.group.maxSteps, cr.group.src = spec.Trials, spec.MaxSteps, src
	if p.R != cr.group.radii[0] {
		if err := cr.setRadius(p.R); err != nil {
			cr.pool = nil
			return checkpoint.Result{}, err
		}
	}
	var out [1]trialOutcome
	cr.pool.runTrial(cr.shard, trial, out[:])
	if out[0].err != nil {
		return checkpoint.Result{}, out[0].err
	}
	return checkpointResult(out[0].res), nil
}

// setRadius moves the pooled lane to radius r: a new partition, and, once
// the pool is built, the world's index moved in place (World.SetRadius)
// and the lane's flood rebuilt over it.
func (cr *CellRunner) setRadius(r float64) error {
	p := cr.group.p
	part, err := cells.NewPartition(p.L, r, p.N)
	if err != nil {
		return fmt.Errorf("building partition: %w", err)
	}
	cr.group.radii[0], cr.pool.parts[0] = r, part
	if cr.pool.w == nil {
		return nil
	}
	if err := cr.pool.w.SetRadius(r); err != nil {
		return err
	}
	return cr.pool.buildLanes()
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
