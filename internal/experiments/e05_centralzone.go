package experiments

import (
	"math"

	"manhattanflood/internal/render"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/theory"
)

// E05Point is one row of the Central Zone timing sweep.
type E05Point struct {
	R           float64
	MeanCZTime  float64
	Bound18LR   float64 // Theorem 10's 18 L/R
	SuburbEmpty bool    // Corollary 12 regime
	MeanTotalT  float64
	Completed   int
	WithinBound bool
}

// E05Result verifies Theorem 10 (every Central Zone cell informed within
// 18 L/R) and Corollary 12 (above the large-R threshold the Suburb is
// empty and the whole flooding obeys the same bound).
type E05Result struct {
	N      int
	L, V   float64
	Points []E05Point
	// AllWithinBound is the headline check: every sweep point's measured
	// CZ completion time is below 18 L/R.
	AllWithinBound bool
}

// E05CentralZone runs the experiment.
func E05CentralZone(cfg Config) (E05Result, error) {
	n := pick(cfg, 4000, 800)
	l := math.Sqrt(float64(n))
	v := 0.35
	radii := pick(cfg, []float64{5, 8, 12, 16, 22}, []float64{6, 20})
	trials := cfg.trials(4, 2)
	maxSteps := pick(cfg, 60000, 20000)

	res := E05Result{N: n, L: l, V: v, AllWithinBound: true}
	for i, r := range radii {
		point, err := floodOne(cfg, "E05", i,
			sim.Params{N: n, L: l, R: r, V: v, Seed: cfg.Seed ^ 0xe05},
			nil, trials, maxSteps, sourceCentral, true)
		if err != nil {
			return res, err
		}
		tp := theory.Params{N: n, L: l, R: r, V: v}
		p := E05Point{
			R:           r,
			MeanCZTime:  point.CZ.Mean,
			Bound18LR:   tp.CentralZoneTimeBound(),
			SuburbEmpty: tp.SuburbEmpty(),
			MeanTotalT:  point.T.Mean,
			Completed:   point.Completed,
		}
		p.WithinBound = point.Completed > 0 && p.MeanCZTime <= p.Bound18LR
		if !p.WithinBound {
			res.AllWithinBound = false
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

func runE05(cfg Config) error {
	res, err := E05CentralZone(cfg)
	if err != nil {
		return err
	}
	t := render.NewTable("E05 Central Zone completion vs Theorem 10 bound  (n="+itoa(res.N)+", v=0.35)",
		"R", "mean CZ time", "18L/R (paper)", "mean total T", "suburb empty (Cor 12)", "within bound")
	for _, p := range res.Points {
		t.AddRow(p.R, p.MeanCZTime, p.Bound18LR, p.MeanTotalT, p.SuburbEmpty, p.WithinBound)
	}
	return emit(cfg, t)
}
