package core

import (
	"errors"
	"fmt"
	"testing"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/panicsafe"
	"manhattanflood/internal/sim"
)

// laneWorld builds a world at radii[0] (the smallest) with one flood per
// radius: the first on the world's own index, the others on bound ones,
// each with its own partition and the given options.
func laneWorld(t *testing.T, p sim.Params, factory sim.ModelFactory, radii []float64, opts ...FloodOption) (*sim.World, []*Flooding) {
	t.Helper()
	p.R = radii[0]
	w, err := sim.NewWorld(p, factory)
	if err != nil {
		t.Fatal(err)
	}
	floods := make([]*Flooding, len(radii))
	for l, r := range radii {
		part, err := cells.NewPartition(p.L, r, p.N)
		if err != nil {
			t.Fatal(err)
		}
		o := append([]FloodOption{WithPartition(part)}, opts...)
		if l > 0 {
			ix, err := w.BindIndex(r)
			if err != nil {
				t.Fatal(err)
			}
			o = append(o, OnIndex(ix))
		}
		if floods[l], err = NewFlooding(w, 0, o...); err != nil {
			t.Fatal(err)
		}
	}
	return w, floods
}

// runLaneTrial resets the pooled lanes to seed and runs one trial under
// Run, checking after every step that the informed set at each radius is
// a subset of the one at the next larger radius.
func runLaneTrial(t *testing.T, w *sim.World, floods []*Flooding, lanes *Lanes, seed uint64, maxSteps int) []Result {
	t.Helper()
	w.Reset(seed)
	src, _ := SourcePair(w)
	run := make([]bool, len(floods))
	for l, f := range floods {
		if err := f.Reset(src); err != nil {
			t.Fatal(err)
		}
		run[l] = true
	}
	if err := lanes.Start(run); err != nil {
		t.Fatal(err)
	}
	if err := Run(nil, lanes, maxSteps, func() error {
		for l := 0; l+1 < len(floods); l++ {
			small, large := floods[l].Informed(), floods[l+1].Informed()
			for i := range small {
				if small[i] && !large[i] {
					return fmt.Errorf("seed %d step %d: agent %d informed at lane %d but not at the larger radius of lane %d",
						seed, w.Time(), i, l, l+1)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(floods))
	for l := range floods {
		if v, _ := lanes.Panic(l); v != nil {
			t.Fatalf("seed %d lane %d panicked: %v", seed, l, v)
		}
		out[l] = lanes.Result(l)
	}
	return out
}

// Every lane's Result must equal a Run of the same flood on a world of its
// own at that radius, trial after trial on one pooled world: plain
// and chained floods, a model that never rests and one that pauses, and a
// budget that truncates the slow lanes.
func TestLanesMatchSeparateWorlds(t *testing.T) {
	radii := []float64{1.5, 3, 6, 12} // V/R from 0.2 down to 0.025
	for _, tc := range []struct {
		name     string
		factory  sim.ModelFactory
		chain    bool
		maxSteps int
	}{
		{"mrwp", nil, false, 5000},
		{"mrwp_chained", nil, true, 5000},
		{"paused", sim.PausedMRWPFactory(4), false, 5000},
		{"truncated", nil, false, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := sim.Params{N: 500, L: 22, V: 0.3, Seed: 1}
			var opts []FloodOption
			if tc.chain {
				opts = append(opts, WithinStepChaining(true))
			}
			w, floods := laneWorld(t, p, tc.factory, radii, opts...)
			lanes, err := NewLanes(w, floods)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 6; seed++ {
				got := runLaneTrial(t, w, floods, lanes, seed, tc.maxSteps)
				for l, r := range radii {
					sp := p
					sp.R, sp.Seed = r, seed
					sw, err := sim.NewWorld(sp, tc.factory)
					if err != nil {
						t.Fatal(err)
					}
					part, err := cells.NewPartition(sp.L, r, sp.N)
					if err != nil {
						t.Fatal(err)
					}
					src, _ := SourcePair(sw)
					sf, err := NewFlooding(sw, src, append([]FloodOption{WithPartition(part)}, opts...)...)
					if err != nil {
						t.Fatal(err)
					}
					if want := runFlood(t, sf, tc.maxSteps); got[l] != want {
						t.Fatalf("seed %d R=%v: lane %+v, separate world %+v", seed, r, got[l], want)
					}
				}
			}
		})
	}
}

// A flood on a shared world must not step it: Step panics with an
// invariant report, directly or under Run, for a flood on a bound index
// and for one handed to NewLanes alike.
func TestSharedFloodCannotStepTheWorld(t *testing.T) {
	p := sim.Params{N: 300, L: 17, V: 0.3, Seed: 3}
	w, floods := laneWorld(t, p, nil, []float64{2, 4})
	requireInvariantPanic(t, "Run of a flood on a bound index", func() { Run(nil, floods[1], 10, nil) })
	if _, err := NewLanes(w, floods); err != nil {
		t.Fatal(err)
	}
	for l, f := range floods {
		requireInvariantPanic(t, fmt.Sprintf("lane %d: Step on a shared world", l), func() { f.Step() })
		requireInvariantPanic(t, fmt.Sprintf("lane %d: Run on a shared world", l), func() { Run(nil, f, 10, nil) })
	}
	other, err := sim.NewWorld(sim.Params{N: 300, L: 17, R: 2, V: 0.3, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLanes(other, floods); err == nil {
		t.Error("NewLanes over floods of another world: want an error")
	}
}

// A panic in one lane's round stops that lane alone: Panic reports it with
// a stack, and the other lanes finish with their separate-world results.
func TestLanePanicStopsOnlyItsLane(t *testing.T) {
	p := sim.Params{N: 400, L: 20, V: 0.3, Seed: 8}
	radii := []float64{2, 4, 8}
	w, floods := laneWorld(t, p, nil, radii)
	lanes, err := NewLanes(w, floods)
	if err != nil {
		t.Fatal(err)
	}
	want := runLaneTrial(t, w, floods, lanes, 8, 5000)

	w.Reset(8)
	src, _ := SourcePair(w)
	for _, f := range floods {
		if err := f.Reset(src); err != nil {
			t.Fatal(err)
		}
	}
	// Poison lane 1: an uninformed id past the population makes its
	// round index out of range.
	floods[1].uninformed = append(floods[1].uninformed, int32(p.N+5))
	if err := lanes.Start([]bool{true, true, true}); err != nil {
		t.Fatal(err)
	}
	if err := Run(nil, lanes, 5000, nil); err != nil {
		t.Fatal(err)
	}
	v, stack := lanes.Panic(1)
	if v == nil || len(stack) == 0 {
		t.Fatalf("lane 1: Panic = (%v, %d stack bytes), want the recovered index panic", v, len(stack))
	}
	for _, l := range []int{0, 2} {
		if v, _ := lanes.Panic(l); v != nil {
			t.Fatalf("lane %d panicked: %v", l, v)
		}
		if got := lanes.Result(l); got != want[l] {
			t.Errorf("lane %d: %+v after lane 1 panicked, want %+v", l, got, want[l])
		}
	}
}

// Start and Run validate their inputs, and a lane already done at the
// start (a one-agent world) finishes at time 0 without a step.
func TestLanesStart(t *testing.T) {
	w, err := sim.NewWorld(sim.Params{N: 1, L: 4, R: 1, V: 0.3, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := w.BindIndex(2)
	if err != nil {
		t.Fatal(err)
	}
	own, err := NewFlooding(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := NewFlooding(w, 0, OnIndex(ix))
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := NewLanes(w, []*Flooding{own, bound})
	if err != nil {
		t.Fatal(err)
	}
	if err := lanes.Start([]bool{true}); err == nil {
		t.Error("Start with a run flag per lane missing: want an error")
	}
	if err := lanes.Start([]bool{true, false}); err != nil {
		t.Fatal(err)
	}
	if err := Run(nil, lanes, -1, nil); err == nil {
		t.Error("Run of the lanes with a negative budget: want an error")
	}
	if !lanes.Done() {
		t.Fatal("a done lane and an idle one: the lanes must be done")
	}
	if err := Run(nil, lanes, 10, nil); err != nil || w.Time() != 0 {
		t.Fatalf("Run of done lanes: err %v at time %d, want nil at time 0", err, w.Time())
	}
	if got := lanes.Result(0); !got.Completed || got.Time != 0 {
		t.Errorf("one-agent lane: %+v, want completed at time 0", got)
	}
}

// requireInvariantPanic runs fn and requires it to panic with a
// panicsafe invariant report.
func requireInvariantPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		var ie *panicsafe.InvariantError
		if r := recover(); r == nil {
			t.Errorf("%s did not panic", what)
		} else if err, ok := r.(error); !ok || !errors.As(err, &ie) {
			t.Errorf("%s panicked with %v, want an invariant report", what, r)
		}
	}()
	fn()
}
