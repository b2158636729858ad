package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"manhattanflood/internal/sim"
)

// runSubjects builds each process Run drives over a fresh world with the
// given tile count: slow enough (R = 1.5, V = 0.2 at unit density) that
// none of them completes within the few steps the tests take.
var runSubjects = []struct {
	name string
	mk   func(t *testing.T, w *sim.World) Process
}{
	{"flooding", func(t *testing.T, w *sim.World) Process {
		f, err := NewFlooding(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}},
	{"tree", func(t *testing.T, w *sim.World) Process {
		f, err := NewTreeFlooding(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}},
	{"parsimonious", func(t *testing.T, w *sim.World) Process {
		f, err := NewParsimoniousFlooding(w, 0, 0.5, 7)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}},
	{"kgossip", func(t *testing.T, w *sim.World) Process {
		g, err := NewKGossip(w, 0, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}},
	// The lanes flood the world's own index and, on a flat world (a tiled
	// one binds nothing), a second radius on a bound index.
	{"lanes", func(t *testing.T, w *sim.World) Process {
		own, err := NewFlooding(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		floods := []*Flooding{own}
		if w.Params().Tiles == 0 {
			ix, err := w.BindIndex(3)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := NewFlooding(w, 0, OnIndex(ix))
			if err != nil {
				t.Fatal(err)
			}
			floods = append(floods, bound)
		}
		lanes, err := NewLanes(w, floods)
		if err != nil {
			t.Fatal(err)
		}
		run := make([]bool, len(floods))
		for i := range run {
			run[i] = true
		}
		if err := lanes.Start(run); err != nil {
			t.Fatal(err)
		}
		return lanes
	}},
}

// Run's contract, for every process on a flat and a tiled world: a
// negative budget is an error before any step; a context canceled before
// the first step returns its error after zero steps; an after error at
// step k stops the run at world time k; and a budget spent before the
// process is done leaves it not done, with no error.
func TestRunContract(t *testing.T) {
	boom := errors.New("after failed")
	const failAt, budget = 2, 3
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tiles := range []int{0, 2} {
		for _, subj := range runSubjects {
			t.Run(fmt.Sprintf("%s/tiles=%d", subj.name, tiles), func(t *testing.T) {
				setup := func() (Process, *sim.World) {
					w, err := sim.NewWorld(sim.Params{N: 400, L: 20, R: 1.5, V: 0.2, Seed: 5, Tiles: tiles}, nil)
					if err != nil {
						t.Fatal(err)
					}
					return subj.mk(t, w), w
				}

				p, w := setup()
				if err := Run(nil, p, -1, nil); err == nil || w.Time() != 0 {
					t.Errorf("negative budget: err %v at time %d, want an error at time 0", err, w.Time())
				}

				p, w = setup()
				if err := Run(canceled, p, budget, nil); !errors.Is(err, context.Canceled) || w.Time() != 0 {
					t.Errorf("canceled context: err %v at time %d, want %v at time 0", err, w.Time(), context.Canceled)
				}

				p, w = setup()
				calls := 0
				err := Run(nil, p, budget, func() error {
					if calls++; calls == failAt {
						return boom
					}
					return nil
				})
				if err != boom || w.Time() != failAt || calls != failAt {
					t.Errorf("after error at step %d: err %v at time %d after %d calls, want %v at time %d",
						failAt, err, w.Time(), calls, boom, failAt)
				}

				p, w = setup()
				if err := Run(nil, p, budget, nil); err != nil || w.Time() != budget || p.Done() {
					t.Errorf("spent budget: err %v at time %d, done %v; want nil at time %d, not done",
						err, w.Time(), p.Done(), budget)
				}
			})
		}
	}
}
