package experiments

import (
	"manhattanflood/internal/dist"
	"manhattanflood/internal/mobility"
	"manhattanflood/internal/render"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/stats"
)

// E13Result is the perfect-simulation ablation: it quantifies the bias a
// cold (uniform) start introduces relative to the exact stationary
// initializer, in (a) spatial-density error at several times and (b) mean
// flooding time.
type E13Result struct {
	N int
	L float64
	// L1At maps observation time -> L1 distance from Theorem 1's density,
	// for each initializer.
	Times        []int
	L1Stationary []float64
	L1Cold       []float64
	// Flooding-time comparison at identical parameters.
	MeanTStationary float64
	MeanTCold       float64
	TrialsCompleted int
}

// E13PerfectSim runs the ablation.
func E13PerfectSim(cfg Config) (E13Result, error) {
	n := pick(cfg, 20000, 4000)
	l := 100.0
	v := 0.5
	times := pick(cfg, []int{0, 20, 100, 300}, []int{0, 30})
	res := E13Result{N: n, L: l, Times: times}

	sp, err := dist.NewSpatial(l)
	if err != nil {
		return res, err
	}
	measure := func(factory sim.ModelFactory) ([]float64, error) {
		w, err := sim.NewWorld(sim.Params{N: n, L: l, R: 2, V: v, Seed: cfg.Seed ^ 0xe13}, factory)
		if err != nil {
			return nil, err
		}
		var out []float64
		next := 0
		for t := 0; t <= times[len(times)-1]; t++ {
			if next < len(times) && t == times[next] {
				g, err := stats.NewGrid2D(l, 12)
				if err != nil {
					return nil, err
				}
				xs, ys := w.X(), w.Y()
				for i := range xs {
					g.Add(xs[i], ys[i])
				}
				_, _, l1 := g.CompareDensity(sp.Density)
				out = append(out, l1)
				next++
			}
			w.Step()
		}
		return out, nil
	}
	if res.L1Stationary, err = measure(sim.MRWPFactory()); err != nil {
		return res, err
	}
	if res.L1Cold, err = measure(sim.MRWPFactory(mobility.WithInit(mobility.InitUniform))); err != nil {
		return res, err
	}

	// Flooding-time bias at matched parameters.
	fn := pick(cfg, 3000, 600)
	fl := 54.77 // sqrt(3000)
	trials := cfg.trials(5, 2)
	maxSteps := pick(cfg, 60000, 20000)
	// Points 0 and 1 distinguish the stationary and cold starts in the
	// checkpoint journal: both run identical parameters and seeds, only
	// the init law differs, so the point index is what keeps their
	// recorded trials apart.
	pStat, err := floodOne(cfg, "E13", 0, sim.Params{N: fn, L: fl, R: 5, V: 0.3, Seed: cfg.Seed ^ 0x13f},
		sim.MRWPFactory(), trials, maxSteps, sourceCentral, false)
	if err != nil {
		return res, err
	}
	pCold, err := floodOne(cfg, "E13", 1, sim.Params{N: fn, L: fl, R: 5, V: 0.3, Seed: cfg.Seed ^ 0x13f},
		sim.MRWPFactory(mobility.WithInit(mobility.InitUniform)), trials, maxSteps, sourceCentral, false)
	if err != nil {
		return res, err
	}
	res.MeanTStationary = pStat.T.Mean
	res.MeanTCold = pCold.T.Mean
	res.TrialsCompleted = pStat.Completed + pCold.Completed
	return res, nil
}

func runE13(cfg Config) error {
	res, err := E13PerfectSim(cfg)
	if err != nil {
		return err
	}
	t := render.NewTable("E13 initializer ablation: L1 distance from Theorem 1 over time  (n="+itoa(res.N)+")",
		"t", "stationary init", "cold (uniform) init")
	for i, tm := range res.Times {
		t.AddRow(tm, res.L1Stationary[i], res.L1Cold[i])
	}
	if err := emit(cfg, t); err != nil {
		return err
	}
	f := render.NewTable("E13 flooding-time bias",
		"mean T (stationary)", "mean T (cold)", "completed trials")
	f.AddRow(res.MeanTStationary, res.MeanTCold, res.TrialsCompleted)
	return emit(cfg, f)
}
