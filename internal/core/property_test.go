package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"manhattanflood/internal/sim"
)

// Property harness: flooding invariants must hold across randomly drawn
// parameter combinations, not just the hand-picked test points.
//
//   - monotonicity: the informed set only grows;
//   - soundness: every newly informed agent had an informed neighbor
//     within R at that step;
//   - conservation: the final informed count never exceeds n;
//   - determinism: same parameters, same trajectory.
func TestFloodingInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 20 + rng.IntN(300)
		l := 5 + rng.Float64()*20
		r := l * (0.05 + 0.2*rng.Float64())
		v := r * (0.01 + 0.09*rng.Float64())
		p := sim.Params{N: n, L: l, R: r, V: v, Seed: seed}
		w, err := sim.NewWorld(p, nil)
		if err != nil {
			return false
		}
		source := rng.IntN(n)
		fl, err := NewFlooding(w, source)
		if err != nil {
			return false
		}
		prevInformed := make([]bool, n)
		prevInformed[source] = true
		prevCount := 1
		for s := 0; s < 30 && !fl.Done(); s++ {
			// Positions before the step are irrelevant; soundness is
			// checked against positions at the transmission step.
			newly := fl.Step()
			if fl.InformedCount() != prevCount+newly {
				return false
			}
			if fl.InformedCount() < prevCount {
				return false
			}
			pos := w.Positions()
			for i := 0; i < n; i++ {
				wasInformed := prevInformed[i]
				isInformed := fl.informed[i]
				if wasInformed && !isInformed {
					return false // informed agents never forget
				}
				if !wasInformed && isInformed {
					// Soundness: some previously informed agent in range.
					ok := false
					for j := 0; j < n; j++ {
						if j != i && prevInformed[j] && pos[i].Dist(pos[j]) <= r+1e-9 {
							ok = true
							break
						}
					}
					if !ok {
						return false
					}
				}
				prevInformed[i] = isInformed
			}
			prevCount = fl.InformedCount()
		}
		return fl.InformedCount() <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Chaining dominates plain flooding step-by-step on identical worlds for
// random parameters.
func TestChainingDominanceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		n := 50 + rng.IntN(200)
		l := 5 + rng.Float64()*15
		r := l * (0.08 + 0.15*rng.Float64())
		v := r * 0.05
		p := sim.Params{N: n, L: l, R: r, V: v, Seed: seed}
		w1, err := sim.NewWorld(p, nil)
		if err != nil {
			return false
		}
		w2, err := sim.NewWorld(p, nil)
		if err != nil {
			return false
		}
		plain, err := NewFlooding(w1, 0)
		if err != nil {
			return false
		}
		chained, err := NewFlooding(w2, 0, WithinStepChaining(true))
		if err != nil {
			return false
		}
		for s := 0; s < 25 && !chained.Done(); s++ {
			plain.Step()
			chained.Step()
			if chained.InformedCount() < plain.InformedCount() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// The infection tree's timestamps must be consistent with the tree
// structure for random parameters.
func TestTreeTimestampsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		n := 30 + rng.IntN(150)
		l := 5 + rng.Float64()*10
		r := l * (0.1 + 0.15*rng.Float64())
		v := r * 0.05
		p := sim.Params{N: n, L: l, R: r, V: v, Seed: seed}
		w, err := sim.NewWorld(p, nil)
		if err != nil {
			return false
		}
		tf, err := NewTreeFlooding(w, 0)
		if err != nil {
			return false
		}
		if err := Run(nil, tf, 200, nil); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			at := tf.when[i]
			par := tf.parent[i]
			switch {
			case i == 0:
				if at != 0 || par != -1 {
					return false
				}
			case at == -1:
				if par != -1 {
					return false // uninformed agents have no parent
				}
			default:
				if par < 0 || tf.when[par] < 0 || tf.when[par] >= at {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
