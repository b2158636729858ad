package experiments

import (
	"math"

	"manhattanflood/internal/core"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/render"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/theory"
)

// E07Result reproduces Theorem 18's lower bound. The theorem's mechanism:
// with R = O(L/n^(1/3)), with constant probability the sparse corner holds
// an agent whose nearest neighbor is Theta(L/n^(1/3)) away, and until some
// agent physically closes that gap — at relative speed at most 2v — the
// isolated agent cannot be informed, forcing
// T >= (gap - R)/(2v) = Omega(L/(v n^(1/3))).
//
// Per trial we measure the strongest such isolation bound,
// max over non-source agents a of (NN(a) - R)/(2v) where NN(a) is the
// time-0 nearest-neighbor distance, verify every completed flooding run
// respects it, and compare its magnitude to the Theorem 18 scale. The
// paper's specific pocket event B ("agent in F = [0,d]^2, annulus E\F
// empty") is tallied too at the probability-maximizing pocket size
// d = (1/81)^(1/3) L/n^(1/3) (the crude bound n p_F e^{-n p_E} peaks
// there at ~1.4%, so B is rare at finite n — the NN statistic carries the
// same content with usable statistics).
type E07Result struct {
	N       int
	L, R, V float64
	Trials  int
	// MeanIsolation is the mean over trials of the strongest isolation
	// bound (steps).
	MeanIsolation float64
	// MaxIsolation is the largest isolation bound seen in any trial.
	MaxIsolation float64
	// Theorem18LB is L/(v n^(1/3)) (unit constant).
	Theorem18LB float64
	// FracPositive is the fraction of trials with a non-trivial isolation
	// bound (some agent beyond R from everyone) — the theorem's "constant
	// positive probability".
	FracPositive float64
	// OmegaConstant is MaxIsolation / Theorem18LB: the measured constant
	// hiding in the theorem's Omega().
	OmegaConstant float64
	// EventBFrac is the measured probability of the paper's literal
	// pocket event at the optimal pocket size.
	EventBFrac float64
	// MeanT is the mean measured flooding time (center source).
	MeanT float64
	// Violations counts completed runs finishing below their trial's
	// isolation bound (must be 0: the bound is a per-trial certainty).
	Violations int
}

// E07LowerBound runs the experiment.
func E07LowerBound(cfg Config) (E07Result, error) {
	n := pick(cfg, 1000, 300)
	l := math.Sqrt(float64(n))
	cbrtN := math.Cbrt(float64(n))
	r := 0.6 * l / cbrtN // R = O(L/n^{1/3}), inside Theorem 18's hypothesis
	v := r / 12
	trials := cfg.trials(40, 10)
	maxSteps := pick(cfg, 400000, 100000)
	// The probability-maximizing pocket side for the literal event B.
	dOpt := l / cbrtN * math.Cbrt(1.0/81.0)

	tp := theory.Params{N: n, L: l, R: r, V: v}
	res := E07Result{
		N: n, L: l, R: r, V: v,
		Trials:      trials,
		Theorem18LB: tp.Theorem18LowerBound(),
	}

	pocket := geom.Square(geom.Pt(0, 0), dOpt)
	annulus := geom.Square(geom.Pt(0, 0), 3*dOpt)
	var isoSum, tSum float64
	var tCount, eventB, above int
	for trial := 0; trial < trials; trial++ {
		if err := cfg.canceled(); err != nil {
			return res, err
		}
		p := sim.Params{N: n, L: l, R: r, V: v,
			Seed: cfg.Seed ^ 0xe07 + uint64(trial)*0x9e3779b97f4a7c15}
		w, err := sim.NewWorld(p, nil)
		if err != nil {
			return res, err
		}
		source := w.NearestAgent(geom.Pt(l/2, l/2))
		// Read the live coordinate columns directly: the world is not
		// stepped inside this trial, so no snapshot copy is needed.
		xs, ys := w.X(), w.Y()

		// Literal event B at the optimal pocket size.
		var inF, inEnotF bool
		for i := range xs {
			q := geom.Point{X: xs[i], Y: ys[i]}
			if q.In(pocket) {
				inF = true
			} else if q.In(annulus) {
				inEnotF = true
			}
		}
		if inF && !inEnotF {
			eventB++
		}

		// Strongest isolation bound over non-source agents. O(n^2) scan;
		// n is small in this experiment by design.
		var iso float64
		for i := range xs {
			if i == source {
				continue
			}
			nn := math.Inf(1)
			for j := range xs {
				if j == i {
					continue
				}
				dx, dy := xs[i]-xs[j], ys[i]-ys[j]
				if d := math.Sqrt(dx*dx + dy*dy); d < nn {
					nn = d
				}
			}
			if b := (nn - r) / (2 * v); b > iso {
				iso = b
			}
		}
		isoSum += iso
		if iso > res.MaxIsolation {
			res.MaxIsolation = iso
		}
		if iso > 0 {
			above++
		}

		f, err := core.NewFlooding(w, source)
		if err != nil {
			return res, err
		}
		if err := core.Run(nil, f, maxSteps, nil); err != nil {
			return res, err
		}
		if fres := f.Result(); fres.Completed {
			tSum += float64(fres.Time)
			tCount++
			if float64(fres.Time) < iso-1e-9 {
				res.Violations++
			}
		}
	}
	res.MeanIsolation = isoSum / float64(trials)
	res.FracPositive = float64(above) / float64(trials)
	res.EventBFrac = float64(eventB) / float64(trials)
	if res.Theorem18LB > 0 {
		res.OmegaConstant = res.MaxIsolation / res.Theorem18LB
	}
	if tCount > 0 {
		res.MeanT = tSum / float64(tCount)
	}
	return res, nil
}

func runE07(cfg Config) error {
	res, err := E07LowerBound(cfg)
	if err != nil {
		return err
	}
	t := render.NewTable("E07 Theorem 18 lower bound  (n="+itoa(res.N)+", R="+ftoa(res.R)+" = 0.6 L/n^(1/3), v=R/12, "+itoa(res.Trials)+" trials)",
		"quantity", "value")
	t.AddRow("Theorem 18 scale L/(v n^(1/3))", res.Theorem18LB)
	t.AddRow("mean isolation bound (NN-R)/(2v)", res.MeanIsolation)
	t.AddRow("max isolation bound", res.MaxIsolation)
	t.AddRow("measured Omega constant (max/LB)", res.OmegaConstant)
	t.AddRow("P(isolation bound > 0)", res.FracPositive)
	t.AddRow("P(literal pocket event B)", res.EventBFrac)
	t.AddRow("mean flooding time", res.MeanT)
	t.AddRow("runs beating their isolation bound", res.Violations)
	return emit(cfg, t)
}
