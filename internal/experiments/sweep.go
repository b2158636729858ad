package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/sim"
)

// SweepSpec describes a flooding-time parameter sweep: one axis (r, v,
// or n) varies over Values while the other parameters stay fixed. It is
// the exported form of what cmd/sweep historically did inline, moved
// behind the crash-safe trial runner so sweeps gain cancellation,
// checkpoint/resume, and per-point panic isolation.
type SweepSpec struct {
	Param    string    // swept axis: "r", "v", or "n"
	Values   []float64 // values the swept axis takes, one sweep point each
	N        int       // agents (fixed unless Param == "n")
	R        float64   // radius (fixed unless Param == "r")
	V        float64   // speed (fixed unless Param == "v")
	Trials   int       // independently seeded runs per point
	MaxSteps int       // step budget per run
	Seed     uint64    // base seed; trial t runs at trialSeed(Seed, t)
	Source   string    // source placement: "center", "corner", "random"
}

// SweepPoint is one row of the sweep. When Err is non-nil the point's
// trials could not be aggregated — a recovered trial panic, reported but
// not fatal to the sweep — and the numeric fields are zero.
type SweepPoint struct {
	Value      float64
	MeanT      float64
	CI95       float64
	CZTime     float64
	SuburbLag  float64
	LOverR     float64
	SecondTerm float64 // Theorem 3 second-phase regressor (L^3 log n)/(R^2 n v)
	Completed  int
	Trials     int
	Err        error
}

// SweepResult is the full sweep, one point per spec value.
type SweepResult struct {
	Points []SweepPoint
}

// sweepSource maps the CLI source names onto the internal placements
// (center = Central Zone agent, corner = Suburb agent, random = agent 0,
// whose position is a stationary-law draw).
func sweepSource(name string) (sourceKind, error) {
	switch name {
	case "", "center":
		return sourceCentral, nil
	case "corner":
		return sourceSuburb, nil
	case "random":
		return sourceFirst, nil
	default:
		return 0, fmt.Errorf("unknown source %q (want center, corner, or random)", name)
	}
}

// Validate reports whether the spec describes a runnable sweep: a known
// shape, a non-negative step budget, and world parameters at every point
// that sim accepts (an "n" sweep's values must also be whole numbers).
// RunSweep, the cell runner, and the sweep service all enforce it, so a
// malformed spec is rejected identically at every entry point, before any
// cell runs.
func (s SweepSpec) Validate() error {
	if _, err := sweepSource(s.Source); err != nil {
		return err
	}
	switch s.Param {
	case "r", "v", "n":
	default:
		return fmt.Errorf("unknown param %q (want r, v, or n)", s.Param)
	}
	if len(s.Values) == 0 {
		return errors.New("sweep needs at least one value")
	}
	if s.Trials <= 0 {
		return errors.New("sweep needs at least one trial per point")
	}
	if s.MaxSteps < 0 {
		return fmt.Errorf("max steps must be non-negative, got %d", s.MaxSteps)
	}
	for i, v := range s.Values {
		if s.Param == "n" && (math.IsInf(v, 0) || v != math.Trunc(v)) {
			return fmt.Errorf("point %d: n must be a whole number, got %v", i, v)
		}
		if err := s.pointParams(i).Validate(); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return nil
}

// Experiment returns the sweep's journal/diagnostic identifier
// ("sweep/<param>") — the same key RunSweep records trials under, so a
// journal written by either runner satisfies the other.
func (s SweepSpec) Experiment() string { return "sweep/" + s.Param }

// Points returns the number of parameter points in the sweep.
func (s SweepSpec) Points() int { return len(s.Values) }

// Cells returns the total number of (point, trial) work units.
func (s SweepSpec) Cells() int { return len(s.Values) * s.Trials }

// pointParams materializes the world parameters of point i: the swept
// axis takes Values[i], the others stay fixed, and L follows the paper's
// standard L = sqrt(n).
func (s SweepSpec) pointParams(i int) sim.Params {
	cn, cr, cv := s.N, s.R, s.V
	switch s.Param {
	case "r":
		cr = s.Values[i]
	case "v":
		cv = s.Values[i]
	case "n":
		cn = int(s.Values[i])
	}
	l := math.Sqrt(float64(cn))
	return sim.Params{N: cn, L: l, R: cr, V: cv, Seed: s.Seed}
}

// Unit returns the checkpoint identity of one (point, trial) cell —
// byte-for-byte the unit RunSweep's trial runner records, so external
// schedulers (the sweep service) and the in-process runner share
// journals.
func (s SweepSpec) Unit(point, trial int) checkpoint.Unit {
	p := s.pointParams(point)
	src, _ := sweepSource(s.Source)
	return checkpoint.Unit{
		Experiment: s.Experiment(),
		Point:      point,
		Trial:      trial,
		Seed:       trialSeed(p.Seed, trial),
		Spec:       trialSpec(p, s.MaxSteps, src, true),
	}
}

// point converts an aggregated floodPoint into the sweep row for point i.
// Both RunSweep and AggregateSweep go through it, which is what makes a
// cell-at-a-time sweep (the service) aggregate byte-identically to the
// in-process runner.
func (s SweepSpec) point(i int, fp floodPoint) SweepPoint {
	p := s.pointParams(i)
	return SweepPoint{
		Value:      s.Values[i],
		MeanT:      fp.T.Mean,
		CI95:       fp.T.CI95,
		CZTime:     fp.CZ.Mean,
		SuburbLag:  fp.Lag.Mean,
		LOverR:     p.L / p.R,
		SecondTerm: secondPhaseScale(p.N, p.L, p.R, p.V),
		Completed:  fp.Completed,
		Trials:     s.Trials,
	}
}

// RunSweep runs the sweep through the crash-safe trial runner. Each point
// is keyed "sweep/<param>" with its index into Values, so an attached
// cfg.Journal checkpoints completed trials and a resumed run replays them
// byte-identically. Per-point panic isolation: a point whose trials panic
// records the structured *PanicError in its Err field and the sweep moves
// on — one poisoned parameter point does not cost the rest of the sweep.
// Cancellation and construction errors, by contrast, abort the sweep and
// return the partial result alongside the error.
func RunSweep(cfg Config, spec SweepSpec) (SweepResult, error) {
	var res SweepResult
	if err := spec.Validate(); err != nil {
		return res, err
	}
	src, _ := sweepSource(spec.Source)
	exp := spec.Experiment()

	for i, val := range spec.Values {
		if err := cfg.canceled(); err != nil {
			return res, err
		}
		sp := SweepPoint{Value: val, Trials: spec.Trials}
		point, err := floodTrials(cfg, exp, i, spec.pointParams(i),
			nil, spec.Trials, spec.MaxSteps, src, true)
		if err != nil {
			var pe *PanicError
			if errors.As(err, &pe) {
				// The point is poisoned but diagnosable; keep sweeping.
				sp.Err = err
				res.Points = append(res.Points, sp)
				continue
			}
			return res, err
		}
		res.Points = append(res.Points, spec.point(i, point))
	}
	return res, nil
}

// WriteTSV renders the sweep as the canonical TSV table (the format
// cmd/sweep has always printed and the service's result endpoint serves):
// a header line, then one row per successful point. Failed points are
// skipped here — the caller reports their errors on its own channel.
func (r SweepResult) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "value\tmeanT\tci95\tczTime\tsuburbLag\tL_over_R\tsecondTerm\tcompleted"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if p.Err != nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%d/%d\n",
			p.Value, p.MeanT, p.CI95, p.CZTime, p.SuburbLag, p.LOverR,
			p.SecondTerm, p.Completed, p.Trials); err != nil {
			return err
		}
	}
	return nil
}
