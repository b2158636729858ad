package core

import (
	"errors"
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

// runLaneTrial resets the pooled lanes to seed and runs one trial, checking
// after every step that the informed set at each radius is a subset of
// the one at the next larger radius.
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
	if err := lanes.Start(maxSteps, run); err != nil {
		t.Fatal(err)
	}
	for lanes.Due() {
		lanes.Step()
		for l := 0; l+1 < len(floods); l++ {
			small, large := floods[l].Informed(), floods[l+1].Informed()
			for i := range small {
				if small[i] && !large[i] {
					t.Fatalf("seed %d step %d: agent %d informed at lane %d but not at the larger radius of lane %d",
						seed, w.Time(), i, l, l+1)
				}
			}
		}
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

// Every lane's Result must equal Flooding.Run of the same flood on a world
// of its own at that radius, trial after trial on one pooled world: plain
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
					want, err := sf.Run(tc.maxSteps)
					if err != nil {
						t.Fatal(err)
					}
					if got[l] != want {
						t.Fatalf("seed %d R=%v: lane %+v, separate world %+v", seed, r, got[l], want)
					}
				}
			}
		})
	}
}

// A flood on a shared world must not step it: Step panics with an
// invariant report and Run returns an error, for a flood on a bound index
// and for one handed to NewLanes alike.
func TestSharedFloodCannotStepTheWorld(t *testing.T) {
	p := sim.Params{N: 300, L: 17, V: 0.3, Seed: 3}
	w, floods := laneWorld(t, p, nil, []float64{2, 4})
	if _, err := floods[1].Run(10); err == nil {
		t.Error("Run of a flood on a bound index: want an error")
	}
	if _, err := NewLanes(w, floods); err != nil {
		t.Fatal(err)
	}
	for l, f := range floods {
		func() {
			defer func() {
				var ie *panicsafe.InvariantError
				if r := recover(); r == nil {
					t.Errorf("lane %d: Step on a shared world did not panic", l)
				} else if err, ok := r.(error); !ok || !errors.As(err, &ie) {
					t.Errorf("lane %d: Step panicked with %v, want an invariant report", l, r)
				}
			}()
			f.Step()
		}()
		if _, err := f.Run(10); err == nil {
			t.Errorf("lane %d: Run on a shared world: want an error", l)
		}
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
	if err := lanes.Start(5000, []bool{true, true, true}); err != nil {
		t.Fatal(err)
	}
	for lanes.Due() {
		lanes.Step()
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

// Start validates its inputs, and a lane already done at the start (a
// one-agent world) finishes at time 0 without a step.
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
	if err := lanes.Start(-1, []bool{true, true}); err == nil {
		t.Error("Start with a negative budget: want an error")
	}
	if err := lanes.Start(10, []bool{true}); err == nil {
		t.Error("Start with a run flag per lane missing: want an error")
	}
	if err := lanes.Start(10, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	if lanes.Due() {
		t.Fatal("a done lane and an idle one: no step is due")
	}
	if got := lanes.Result(0); !got.Completed || got.Time != 0 {
		t.Errorf("one-agent lane: %+v, want completed at time 0", got)
	}
}
