package experiments

import (
	"math"

	"manhattanflood/internal/render"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/stats"
)

// E04Point is one row of the v sweep.
type E04Point struct {
	V         float64
	MeanT     float64
	CI95      float64
	InvV      float64
	Completed int
	Trials    int
}

// E04Result is the v-dependence experiment: T ~ a + b/v at fixed
// (n, L, R). The b/v term only carries weight when corner agents are
// *physically isolated* (no relay chain within R) so the message must be
// carried by moving couriers — which happens once R sits below the
// corner-pocket scale L/n^(1/3) (exactly the regime of Theorem 18, where
// the paper proves flooding time *must* depend on v). Above that scale
// relays bridge every gap and T is v-flat; the experiment operates below
// it.
type E04Result struct {
	N          int
	L, R       float64
	Points     []E04Point
	Fit        stats.Fit // T ~ Intercept + Slope*(1/v)
	BPerS      float64   // fitted slope normalized by the Theta-form S
	STheta     float64   // L^3 ln n / (R^2 n)
	Increasing bool      // T grows as v shrinks
}

// E04FloodVsV runs the experiment.
func E04FloodVsV(cfg Config) (E04Result, error) {
	n := pick(cfg, 4000, 800)
	l := math.Sqrt(float64(n))
	// R well below the corner-pocket scale L/n^(1/3) (~4 at n=4000): gaps
	// larger than R are routine, so completion is courier-limited and the
	// 1/v shape is measurable.
	r := 1.5
	speeds := pick(cfg, []float64{0.02, 0.03, 0.05, 0.08, 0.12, 0.15}, []float64{0.02, 0.15})
	trials := cfg.trials(5, 2)
	maxSteps := pick(cfg, 200000, 80000)

	res := E04Result{N: n, L: l, R: r}
	res.STheta = l * l * l * logf(n) / (r * r * float64(n))
	var invVs, ys []float64
	for i, v := range speeds {
		point, err := floodOne(cfg, "E04", i,
			sim.Params{N: n, L: l, R: r, V: v, Seed: cfg.Seed ^ 0xe04},
			nil, trials, maxSteps, sourceCentral, false)
		if err != nil {
			return res, err
		}
		p := E04Point{
			V:         v,
			MeanT:     point.T.Mean,
			CI95:      point.T.CI95,
			InvV:      1 / v,
			Completed: point.Completed,
			Trials:    point.Trials,
		}
		res.Points = append(res.Points, p)
		if point.Completed > 0 {
			invVs = append(invVs, p.InvV)
			ys = append(ys, p.MeanT)
		}
	}
	if len(ys) >= 2 {
		if fit, err := stats.LinearFit(invVs, ys); err == nil {
			res.Fit = fit
			if res.STheta > 0 {
				res.BPerS = fit.Slope / res.STheta
			}
		}
	}
	// Increasing when the slowest point exceeds the fastest beyond noise.
	if len(res.Points) >= 2 {
		slow, fast := res.Points[0], res.Points[len(res.Points)-1]
		res.Increasing = slow.MeanT > fast.MeanT+slow.CI95+fast.CI95
	}
	return res, nil
}

func runE04(cfg Config) error {
	res, err := E04FloodVsV(cfg)
	if err != nil {
		return err
	}
	t := render.NewTable("E04 flooding time vs v  (n="+itoa(res.N)+", R="+ftoa(res.R)+", source=central)",
		"v", "mean T", "ci95", "1/v", "completed")
	for _, p := range res.Points {
		t.AddRow(p.V, p.MeanT, p.CI95, p.InvV, p.Completed)
	}
	if err := emit(cfg, t); err != nil {
		return err
	}
	f := render.NewTable("E04 fit  T ~ a + b*(1/v)  (Theorem 3 predicts b ~ S)",
		"a (CZ phase)", "b", "b / S-theta", "R^2", "T increasing as v->0")
	f.AddRow(res.Fit.Intercept, res.Fit.Slope, res.BPerS, res.Fit.R2, res.Increasing)
	return emit(cfg, f)
}
