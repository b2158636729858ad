package experiments

// Scheduler seams: cell- and trial-granular access to the crash-safe
// sweep runner for external schedulers — concretely the multi-tenant
// sweep service (internal/service), which interleaves the trials of many
// tenants' sweeps over a shared worker pool instead of running one sweep
// start-to-finish. The contract mirrors floodTrials exactly: same derived
// seeds, same checkpoint units, same panic isolation, same aggregation —
// so a sweep assembled one cell or one trial's lanes at a time, in any
// order, with any worker count, produces byte-identical results to
// RunSweep.

import (
	"fmt"
	"slices"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/sim"
)

// MaxLanes caps the radius lanes one CellRunner.RunLanes call floods
// together. A runner keeps a bound index, a partition and a flood per
// lane, so the cap bounds a worker's memory at one world plus
// MaxLanes-1 bound indexes (ARCHITECTURE.md, "Radius lanes").
const MaxLanes = 8

// CellRunner executes the cells of sweep specs with the same pooling and
// panic isolation as the in-process trial runner. A call runs one trial
// of up to MaxLanes consecutive points as the radius lanes of one world
// (floodTrials' lanePool): one Reset, one world step per time unit, one
// flood round per unfinished lane. One runner belongs to one worker
// goroutine (it is not concurrency-safe). Across calls it keeps one
// pooled world with its lanes, keyed by the world parameters without the
// seed and without R: consecutive calls over the same points hit the
// zero-allocation Reset path even when they belong to different sweeps
// (every trial reseeds the world anyway). A change of radii keeps the
// population, RNG slab and positions: the world's own index moves to the
// smallest radius (sim.World.SetRadius), the bound indexes still in use
// are kept and the rest unbound, and the partitions and floods are
// rebuilt. Any other parameter switch rebuilds the pool. Memory stays
// bounded at one world and MaxLanes radii per worker no matter how many
// sweeps are in flight.
type CellRunner struct {
	shard int
	group floodGroup // the pool's group; exp, first, p and seed follow each call
	pool  *lanePool
	key   sim.Params // the pool's parameters, Seed and R cleared
	param string     // the sweep axis group.exp was made from
	outs  [MaxLanes]trialOutcome
}

// NewCellRunner returns a runner for the given worker shard index (the
// index appears in recovered panic reports, mirroring floodTrials'
// workers).
func NewCellRunner(shard int) *CellRunner {
	return &CellRunner{shard: shard}
}

// Run executes one cell of the spec and returns its durable outcome: the
// one-lane case of RunLanes. A panic anywhere inside the trial is
// recovered into a *PanicError carrying (experiment, point, trial, seed,
// shard) — the caller decides how far the poison spreads; the runner
// itself discards its pooled world and rebuilds on the next call. Run
// never panics for trial-level failures.
func (cr *CellRunner) Run(spec SweepSpec, point, trial int) (checkpoint.Result, error) {
	var out [1]checkpoint.Result
	err := cr.RunLanes(spec, point, trial, []bool{true}, out[:])
	return out[0], err
}

// RunLanes runs trial `trial` of the points first, ..., first+len(run)-1
// of spec as radius lanes over one world: lane l floods point first+l if
// run[l] is set and sits the trial out otherwise (its cell is already
// recorded), and out[l] receives a running lane's outcome. Every cell's
// outcome is bit-identical to Run of that cell alone. Several lanes need
// an "r" sweep — the points of the other axes follow different
// trajectories — and at most MaxLanes of them. The error is the first
// failed running lane's, in lane order: a spec or range error, a
// construction error, or a recovered *PanicError naming the lane's
// point; out is then unspecified, and after a panic the pool is rebuilt
// on the next call.
func (cr *CellRunner) RunLanes(spec SweepSpec, first, trial int, run []bool, out []checkpoint.Result) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	n := len(run)
	switch {
	case n < 1 || n > MaxLanes || len(out) != n:
		return fmt.Errorf("experiments: %d lanes with %d outcomes, want 1 to %d of each", n, len(out), MaxLanes)
	case n > 1 && spec.Param != "r":
		return fmt.Errorf("experiments: %d lanes of a %q sweep; only the points of an r sweep share a trajectory", n, spec.Param)
	case first < 0 || first+n > len(spec.Values) || trial < 0 || trial >= spec.Trials:
		return fmt.Errorf("experiments: cells (%d..%d,%d) out of range for %d points x %d trials",
			first, first+n-1, trial, len(spec.Values), spec.Trials)
	}
	src, _ := sweepSource(spec.Source)
	p := spec.pointParams(first)
	key := p
	key.Seed, key.R = 0, 0
	if cr.pool == nil || key != cr.key {
		cr.group = floodGroup{withPartition: true}
		cr.pool = newLanePool(&cr.group, nil)
		cr.key, cr.param = key, ""
	}
	g := &cr.group
	if spec.Param != cr.param {
		g.exp, cr.param = spec.Experiment(), spec.Param
	}
	g.first, g.p = first, p
	g.trials, g.maxSteps, g.src = spec.Trials, spec.MaxSteps, src
	if !cr.hasRadii(spec, first, n) {
		if err := cr.setRadii(spec, first, n); err != nil {
			cr.pool = nil
			return err
		}
	}
	outs := cr.outs[:n]
	for l := range outs {
		outs[l] = trialOutcome{journaled: !run[l]}
	}
	cr.pool.runTrial(cr.shard, trial, outs)
	for l, o := range outs {
		if !run[l] {
			continue
		}
		if o.err != nil {
			return o.err
		}
		out[l] = checkpointResult(o.res)
	}
	return nil
}

// hasRadii reports whether the pool's lanes are at the radii of points
// first..first+n-1 already.
func (cr *CellRunner) hasRadii(spec SweepSpec, first, n int) bool {
	radii := cr.group.radii
	if len(radii) != n {
		return false
	}
	for l, r := range radii {
		if r != spec.pointParams(first+l).R {
			return false
		}
	}
	return true
}

// setRadii moves the pool's lanes to the radii of points
// first..first+n-1: a partition per lane, kept from the previous lanes
// where a radius repeats, and, once the pool's world is built, its own
// index moved to the smallest radius (World.SetRadius) and the lanes
// rebuilt over it (lanePool.buildLanes, which keeps the bound indexes a
// lane still reads and unbinds the rest).
func (cr *CellRunner) setRadii(spec SweepSpec, first, n int) error {
	g, lp := &cr.group, cr.pool
	radii := make([]float64, n)
	parts := make([]*cells.Partition, n)
	for l := range radii {
		radii[l] = spec.pointParams(first + l).R
		if k := slices.Index(g.radii, radii[l]); k >= 0 {
			parts[l] = lp.parts[k]
			continue
		}
		part, err := cells.NewPartition(g.p.L, radii[l], g.p.N)
		if err != nil {
			return fmt.Errorf("building partition: %w", err)
		}
		parts[l] = part
	}
	g.radii, lp.parts, lp.run = radii, parts, make([]bool, n)
	if lp.w == nil {
		return nil
	}
	if r := slices.Min(radii); r != lp.w.Params().R {
		if err := lp.w.SetRadius(r); err != nil {
			return err
		}
	}
	return lp.buildLanes()
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
