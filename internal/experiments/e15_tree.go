package experiments

import (
	"math"

	"manhattanflood/internal/core"
	"manhattanflood/internal/render"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/stats"
	"manhattanflood/internal/theory"
)

// E15Point is one row of the infection-tree scan.
type E15Point struct {
	R               float64
	MeanMaxDepth    float64
	LOverR          float64
	MeanCourierFrac float64 // fraction of tree edges with delay > 1
	MeanMaxDelay    float64 // worst courier leg length (steps)
	Trials          int
}

// E15Result examines the infection tree's geometry: the proof of Theorem
// 10 moves the message cell-to-cell, so the relay depth should scale like
// L/R; the Suburb contributes courier edges whose time delay (not hop
// count) carries the S/v cost. The experiment measures both signatures.
type E15Result struct {
	N      int
	L, V   float64
	Points []E15Point
	// DepthVsLOverR is the fitted slope of max depth against L/R.
	DepthVsLOverR float64
	DepthFitR2    float64
}

// E15InfectionTree runs the experiment.
func E15InfectionTree(cfg Config) (E15Result, error) {
	n := pick(cfg, 4000, 800)
	l := math.Sqrt(float64(n))
	v := 0.2
	radii := pick(cfg, []float64{2, 3, 4, 6, 8}, []float64{2, 6})
	trials := cfg.trials(4, 2)
	maxSteps := pick(cfg, 100000, 40000)

	res := E15Result{N: n, L: l, V: v}
	var xs, ys []float64
	for _, r := range radii {
		p := E15Point{R: r, LOverR: theory.Params{N: n, L: l, R: r, V: v}.FirstPhaseTerm(), Trials: trials}
		var depths, fracs, delays []float64
		for trial := 0; trial < trials; trial++ {
			if err := cfg.canceled(); err != nil {
				return res, err
			}
			wp := sim.Params{N: n, L: l, R: r, V: v,
				Seed: cfg.Seed ^ 0xe15 + uint64(trial)*0x9e3779b97f4a7c15}
			w, err := sim.NewWorld(wp, nil)
			if err != nil {
				return res, err
			}
			source := w.NearestAgent(centerOf(l))
			f, err := core.NewTreeFlooding(w, source)
			if err != nil {
				return res, err
			}
			if err := core.Run(nil, f, maxSteps, nil); err != nil {
				return res, err
			}
			if !f.Done() {
				continue
			}
			st := f.Stats()
			depths = append(depths, float64(st.MaxDepth))
			fracs = append(fracs, st.CourierFraction)
			delays = append(delays, float64(st.MaxEdgeDelay))
		}
		if len(depths) > 0 {
			p.MeanMaxDepth = stats.Mean(depths)
			p.MeanCourierFrac = stats.Mean(fracs)
			p.MeanMaxDelay = stats.Mean(delays)
			xs = append(xs, p.LOverR)
			ys = append(ys, p.MeanMaxDepth)
		}
		res.Points = append(res.Points, p)
	}
	if len(xs) >= 2 {
		if fit, err := stats.LinearFit(xs, ys); err == nil {
			res.DepthVsLOverR = fit.Slope
			res.DepthFitR2 = fit.R2
		}
	}
	return res, nil
}

func runE15(cfg Config) error {
	res, err := E15InfectionTree(cfg)
	if err != nil {
		return err
	}
	t := render.NewTable("E15 infection-tree geometry  (n="+itoa(res.N)+", v=0.2, source=central)",
		"R", "L/R", "mean max depth", "courier-edge frac", "mean max courier delay")
	for _, p := range res.Points {
		t.AddRow(p.R, p.LOverR, p.MeanMaxDepth, p.MeanCourierFrac, p.MeanMaxDelay)
	}
	if err := emit(cfg, t); err != nil {
		return err
	}
	f := render.NewTable("E15 depth ~ L/R fit  (Theorem 10's cell-to-cell propagation)",
		"slope", "R^2")
	f.AddRow(res.DepthVsLOverR, res.DepthFitR2)
	return emit(cfg, f)
}
