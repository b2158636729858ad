package experiments

import (
	"math"

	"manhattanflood/internal/render"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/stats"
)

// E11Point is one cell of the (R, v) grid.
type E11Point struct {
	R, V      float64
	MeanCZ    float64 // Central Zone completion time
	MeanLag   float64 // Suburb lag = total - CZ
	SOverV    float64 // the Theta-form S/v regressor
	LagRatio  float64 // lag / total time — "suburb as fast as CZ" when small
	Completed int
}

// E11Result measures the paper's headline phenomenon: flooding over the
// sparse, disconnected Suburb completes within O(S/v) after the Central
// Zone — a small fraction of the total time for reasonable speeds, even
// though the Suburb sits far below its connectivity threshold.
type E11Result struct {
	N      int
	L      float64
	Points []E11Point
	// LagVsSV is the correlation between measured lag and S/v across the
	// grid (positive and strong when Theorem 3's second term drives the
	// lag).
	LagVsSV float64
}

// E11SuburbLag runs the experiment.
func E11SuburbLag(cfg Config) (E11Result, error) {
	n := pick(cfg, 4000, 800)
	l := math.Sqrt(float64(n))
	radii := pick(cfg, []float64{4, 6, 8}, []float64{5})
	speeds := pick(cfg, []float64{0.1, 0.2, 0.4}, []float64{0.2, 0.4})
	trials := cfg.trials(4, 2)
	maxSteps := pick(cfg, 120000, 40000)

	res := E11Result{N: n, L: l}
	var lags, svs []float64
	pointIdx := 0
	for _, r := range radii {
		for _, v := range speeds {
			point, err := floodOne(cfg, "E11", pointIdx,
				sim.Params{N: n, L: l, R: r, V: v, Seed: cfg.Seed ^ 0xe11},
				nil, trials, maxSteps, sourceCentral, true)
			pointIdx++
			if err != nil {
				return res, err
			}
			p := E11Point{
				R: r, V: v,
				MeanCZ:    point.CZ.Mean,
				MeanLag:   point.Lag.Mean,
				SOverV:    secondPhaseScale(n, l, r, v),
				Completed: point.Completed,
			}
			if total := point.T.Mean; total > 0 {
				p.LagRatio = p.MeanLag / total
			}
			res.Points = append(res.Points, p)
			if point.Completed > 0 {
				lags = append(lags, p.MeanLag)
				svs = append(svs, p.SOverV)
			}
		}
	}
	if len(lags) >= 3 {
		if r, err := stats.Pearson(svs, lags); err == nil {
			res.LagVsSV = r
		}
	}
	return res, nil
}

func runE11(cfg Config) error {
	res, err := E11SuburbLag(cfg)
	if err != nil {
		return err
	}
	t := render.NewTable("E11 Suburb lag over (R, v)  (n="+itoa(res.N)+", source=central)",
		"R", "v", "mean CZ time", "mean suburb lag", "S/v (theta)", "lag/total", "completed")
	for _, p := range res.Points {
		t.AddRow(p.R, p.V, p.MeanCZ, p.MeanLag, p.SOverV, p.LagRatio, p.Completed)
	}
	if err := emit(cfg, t); err != nil {
		return err
	}
	f := render.NewTable("E11 correlation", "Pearson(lag, S/v)")
	f.AddRow(res.LagVsSV)
	return emit(cfg, f)
}
