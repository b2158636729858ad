package soatest

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/mobility"
)

// modelCase builds one model variant under a given (L, V) configuration.
type modelCase struct {
	name string
	mk   func(cfg mobility.Config) (mobility.Model, error)
}

// modelMatrix enumerates every model variant the harness drives: all
// five models, every initialization mode, and two pause bounds.
func modelMatrix() []modelCase {
	return []modelCase{
		{"mrwp-stationary", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewMRWP(cfg)
		}},
		{"mrwp-uniform", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewMRWP(cfg, mobility.WithInit(mobility.InitUniform))
		}},
		{"mrwp-theorem12", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewMRWP(cfg, mobility.WithInit(mobility.InitTheorem12))
		}},
		{"rwp-stationary", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRWP(cfg)
		}},
		{"rwp-uniform", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRWP(cfg, mobility.WithRWPInit(mobility.InitUniform))
		}},
		{"random-walk", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRandomWalk(cfg)
		}},
		{"random-direction", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRandomDirection(cfg)
		}},
		{"mrwp-paused-short", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewPausedMRWP(cfg, 0.5)
		}},
		{"mrwp-paused-long", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewPausedMRWP(cfg, 4.0)
		}},
	}
}

// lockstep holds the two forms of one model's agents, driven from
// identical per-agent RNG streams, plus their separate views.
type lockstep struct {
	n      int
	agents []mobility.Agent
	pop    mobility.Population
	av, pv mobility.View
}

func newLockstep(t *testing.T, model mobility.Model, n int, seed uint64) *lockstep {
	t.Helper()
	bs, ok := model.(mobility.BulkStepper)
	if !ok {
		t.Fatalf("model %s does not offer a population", model.Name())
	}
	ls := &lockstep{
		n:      n,
		agents: make([]mobility.Agent, n),
		pop:    bs.NewPopulation(n),
		av: mobility.View{
			X: make([]float64, n), Y: make([]float64, n), Dirty: make([]bool, n),
		},
		pv: mobility.View{
			X: make([]float64, n), Y: make([]float64, n), Dirty: make([]bool, n),
		},
	}
	if ls.pop.Len() != n {
		t.Fatalf("population Len = %d, want %d", ls.pop.Len(), n)
	}
	ls.pop.Bind(ls.pv)
	for i := 0; i < n; i++ {
		// Two independent copies of the SAME stream: any divergence in
		// draw consumption between the forms desynchronizes everything
		// downstream and the comparison fails loudly.
		ra := rand.New(rand.NewPCG(seed, uint64(i)))
		rp := rand.New(rand.NewPCG(seed, uint64(i)))
		a := model.NewAgent(ra)
		ls.agents[i] = a
		a.(mobility.SlotWriter).BindSlot(ls.av, i)
		ls.pop.InitAgent(i, rp)
	}
	return ls
}

// compare requires the two forms to be in bit-identical states: view
// coordinates, dirty bits and full probed kinematic state per agent.
func (ls *lockstep) compare(t *testing.T, tag string) {
	t.Helper()
	pp := ls.pop.(mobility.PopProber)
	for i := 0; i < ls.n; i++ {
		if ls.av.X[i] != ls.pv.X[i] || ls.av.Y[i] != ls.pv.Y[i] {
			t.Fatalf("%s: agent %d position diverges: AoS (%v,%v) vs SoA (%v,%v)",
				tag, i, ls.av.X[i], ls.av.Y[i], ls.pv.X[i], ls.pv.Y[i])
		}
		if ls.av.Dirty[i] != ls.pv.Dirty[i] {
			t.Fatalf("%s: agent %d dirty bit diverges: AoS %v vs SoA %v",
				tag, i, ls.av.Dirty[i], ls.pv.Dirty[i])
		}
		ap := ls.agents[i].(mobility.Prober).Probe()
		sp := pp.ProbeAgent(i)
		if ap != sp {
			t.Fatalf("%s: agent %d state diverges:\nAoS %+v\nSoA %+v", tag, i, ap, sp)
		}
	}
}

// step advances both forms one time unit. The population's range is cut
// at the given split points, exercising arbitrary StepRange
// decompositions (the world steps shards and fuse-chunks, never always
// the full range).
func (ls *lockstep) step(splits []int) {
	clear(ls.av.Dirty)
	clear(ls.pv.Dirty)
	for _, a := range ls.agents {
		a.Step()
	}
	lo := 0
	for _, s := range splits {
		if s > lo && s < ls.n {
			ls.pop.StepRange(lo, s)
			lo = s
		}
	}
	ls.pop.StepRange(lo, ls.n)
}

// TestLockstepBitIdentical is the core differential sweep: every model
// variant, three speed regimes (within-leg fast path, corner-heavy,
// multi-trip chaining), two seeds, 50 steps, randomized StepRange splits
// — AoS and SoA must agree to the last bit at every step.
func TestLockstepBitIdentical(t *testing.T) {
	const l = 20.0
	const n = 48
	const steps = 50
	for _, mc := range modelMatrix() {
		for _, v := range []float64{0.02, 0.9, 7.5} {
			for _, seed := range []uint64{1, 424242} {
				name := fmt.Sprintf("%s/v=%g/seed=%d", mc.name, v, seed)
				t.Run(name, func(t *testing.T) {
					model, err := mc.mk(mobility.Config{L: l, V: v})
					if err != nil {
						t.Fatal(err)
					}
					ls := newLockstep(t, model, n, seed)
					ls.compare(t, "init")
					srng := rand.New(rand.NewPCG(seed, 0xdecaf))
					for s := 1; s <= steps; s++ {
						// 0-3 random split points per step.
						splits := make([]int, srng.IntN(4))
						for k := range splits {
							splits[k] = srng.IntN(n)
						}
						ls.step(splits)
						ls.compare(t, fmt.Sprintf("step %d", s))
					}
				})
			}
		}
	}
}

// TestLockstepReinit pins the pooled-reuse contract: re-drawing a used
// population in place from a fresh seed (InitAgent) leaves it
// bit-identical to freshly drawn AoS agents, with counters reset.
func TestLockstepReinit(t *testing.T) {
	for _, mc := range modelMatrix() {
		t.Run(mc.name, func(t *testing.T) {
			model, err := mc.mk(mobility.Config{L: 12, V: 1.1})
			if err != nil {
				t.Fatal(err)
			}
			const n = 32
			ls := newLockstep(t, model, n, 7)
			for s := 0; s < 20; s++ {
				ls.step(nil)
			}
			for i := 0; i < n; i++ {
				ra := rand.New(rand.NewPCG(99, uint64(i)))
				rp := rand.New(rand.NewPCG(99, uint64(i)))
				ls.agents[i] = model.NewAgent(ra)
				ls.agents[i].(mobility.SlotWriter).BindSlot(ls.av, i)
				ls.pop.InitAgent(i, rp)
			}
			ls.compare(t, "reinit")
			for s := 1; s <= 20; s++ {
				ls.step([]int{n / 3, 2 * n / 3})
				ls.compare(t, fmt.Sprintf("post-reinit step %d", s))
			}
		})
	}
}

// TestBindValidates pins Population.Bind's size invariant.
func TestBindValidates(t *testing.T) {
	model, err := mobility.NewMRWP(mobility.Config{L: 10, V: 1})
	if err != nil {
		t.Fatal(err)
	}
	pop := mobility.BulkStepper(model).NewPopulation(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Bind with mismatched view sizes did not panic")
		}
	}()
	pop.Bind(mobility.View{X: make([]float64, 4), Y: make([]float64, 8)})
}
