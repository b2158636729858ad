package experiments

import (
	"math"

	"manhattanflood/internal/render"
	"manhattanflood/internal/sim"
)

// E14Point is one mobility model's flooding performance.
type E14Point struct {
	Model     string
	MeanT     float64
	CI95      float64
	Completed int
	Trials    int
}

// E14Result contrasts flooding over MRWP against the uniform-density
// baselines of the authors' earlier work ([10], [11]) at identical
// (n, L, R, v): the center-heavy MRWP law concentrates most agents in a
// well-connected core, while its corners empty out — the net effect on the
// flooding time is what this experiment measures.
type E14Result struct {
	N       int
	L, R, V float64
	Points  []E14Point
}

// E14Models runs the comparison.
func E14Models(cfg Config) (E14Result, error) {
	n := pick(cfg, 3000, 600)
	l := math.Sqrt(float64(n))
	r := 4.0
	v := 0.3
	trials := cfg.trials(5, 2)
	maxSteps := pick(cfg, 120000, 40000)

	res := E14Result{N: n, L: l, R: r, V: v}
	factories := []struct {
		name    string
		factory sim.ModelFactory
	}{
		{"mrwp", sim.MRWPFactory()},
		{"rwp", sim.RWPFactory()},
		{"random-walk", sim.RandomWalkFactory()},
		{"random-direction", sim.RandomDirectionFactory()},
	}
	for i, f := range factories {
		point, err := floodOne(cfg, "E14", i,
			sim.Params{N: n, L: l, R: r, V: v, Seed: cfg.Seed ^ 0xe14},
			f.factory, trials, maxSteps, sourceFirst, false)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, E14Point{
			Model:     f.name,
			MeanT:     point.T.Mean,
			CI95:      point.T.CI95,
			Completed: point.Completed,
			Trials:    point.Trials,
		})
	}
	return res, nil
}

func runE14(cfg Config) error {
	res, err := E14Models(cfg)
	if err != nil {
		return err
	}
	t := render.NewTable("E14 flooding time across mobility models  (n="+itoa(res.N)+", R=4, v=0.3)",
		"model", "mean T", "ci95", "completed/trials")
	for _, p := range res.Points {
		t.AddRow(p.Model, p.MeanT, p.CI95, itoa(p.Completed)+"/"+itoa(p.Trials))
	}
	return emit(cfg, t)
}
