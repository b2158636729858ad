package experiments

import (
	"math"

	"manhattanflood/internal/render"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/stats"
	"manhattanflood/internal/theory"
)

// E03Point is one row of the R sweep.
type E03Point struct {
	R          float64
	MeanT      float64
	CI95       float64
	FirstTerm  float64 // L/R
	SecondTerm float64 // L^3 log n / (R^2 n v)
	Bound      float64 // Theorem 3 shape with unit constants
	Completed  int
	Trials     int
}

// E03Result is the R-dependence experiment: flooding time against the
// transmission radius at fixed n, L = sqrt(n)-scale, and fixed slow speed.
// Theorem 3 predicts T ~ a L/R + b S/v; the fit coefficients and R^2
// quantify how well the two-term shape explains the measurements.
type E03Result struct {
	N      int
	L, V   float64
	Points []E03Point
	Fit    stats.Fit2 // T ~ A*(L/R) + B*secondTerm
	// MonotoneDecreasing reports whether mean flooding time decreased with
	// R across the sweep — the paper's "decreasing function of R".
	MonotoneDecreasing bool
}

// E03FloodVsR runs the experiment.
func E03FloodVsR(cfg Config) (E03Result, error) {
	n := pick(cfg, 4000, 800)
	l := math.Sqrt(float64(n))
	// Slow agents: at v = 0.1 the Suburb phase S/v is visible at the small
	// radii while the L/R term dominates at the large ones, so the
	// two-term fit has signal on both regressors.
	v := 0.1
	radii := pick(cfg, []float64{4, 5, 6, 8, 10, 13, 16}, []float64{4, 8, 16})
	trials := cfg.trials(5, 2)
	maxSteps := pick(cfg, 60000, 20000)

	res := E03Result{N: n, L: l, V: v}
	var x1, x2, y []float64
	// Every radius floods from one seed, so the points run as the radius
	// lanes of one world per trial.
	points, errs := floodTrials(cfg, floodGroup{exp: "E03",
		p:     sim.Params{N: n, L: l, V: v, Seed: cfg.Seed ^ 0xe03},
		radii: radii, trials: trials, maxSteps: maxSteps, src: sourceCentral})
	for i, r := range radii {
		if errs[i] != nil {
			return res, errs[i]
		}
		point := points[i]
		tp := theory.Params{N: n, L: l, R: r, V: v}
		p := E03Point{
			R:          r,
			MeanT:      point.T.Mean,
			CI95:       point.T.CI95,
			FirstTerm:  l / r,
			SecondTerm: secondPhaseScale(n, l, r, v),
			Bound:      tp.FloodingUpperBound(),
			Completed:  point.Completed,
			Trials:     point.Trials,
		}
		res.Points = append(res.Points, p)
		if point.Completed > 0 {
			x1 = append(x1, p.FirstTerm)
			x2 = append(x2, p.SecondTerm)
			y = append(y, p.MeanT)
		}
	}
	res.MonotoneDecreasing = true
	for i := 1; i < len(res.Points); i++ {
		// Allow CI-sized noise between adjacent points.
		slack := res.Points[i-1].CI95 + res.Points[i].CI95
		if res.Points[i].MeanT > res.Points[i-1].MeanT+slack {
			res.MonotoneDecreasing = false
		}
	}
	if len(y) >= 3 {
		if fit, err := stats.LinearFit2(x1, x2, y); err == nil {
			res.Fit = fit
		}
	}
	return res, nil
}

func runE03(cfg Config) error {
	res, err := E03FloodVsR(cfg)
	if err != nil {
		return err
	}
	t := render.NewTable("E03 flooding time vs R  (n="+itoa(res.N)+", L=sqrt(n), v="+ftoa(res.V)+", source=central)",
		"R", "mean T", "ci95", "L/R", "S-term/v", "completed")
	for _, p := range res.Points {
		t.AddRow(p.R, p.MeanT, p.CI95, p.FirstTerm, p.SecondTerm, p.Completed)
	}
	if err := emit(cfg, t); err != nil {
		return err
	}
	f := render.NewTable("E03 Theorem 3 two-term fit  T ~ a*(L/R) + b*(L^3 ln n / (R^2 n v))",
		"a", "b", "R^2", "monotone decreasing in R")
	f.AddRow(res.Fit.A, res.Fit.B, res.Fit.R2, res.MonotoneDecreasing)
	return emit(cfg, f)
}
