package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/mobility"
	"manhattanflood/internal/sim"
)

// couplingSpec is the r-sweep of the lane coupling oracle: r = 2, 4, 8, 16
// at V = 0.3 puts V/R on both sides of the 0.05 delta/rebuild switch, so
// the lanes sync their indexes through both paths.
func couplingSpec() SweepSpec {
	return SweepSpec{Param: "r", Values: []float64{2, 4, 8, 16}, N: 2000, V: 0.3,
		Trials: 64, MaxSteps: 100_000, Seed: 1, Source: "center"}
}

// TestRadiusLanesCoupling is the exact-coupling oracle of the radius
// lanes. Every trial of an r-sweep floods all radii over one trajectory,
// so at every step the informed set at a smaller R must be a subset of
// the one at the next larger R (hence T(R) >= T(R') for R <= R'), and
// every lane's cell must equal CellRunner.Run of that cell on a world of
// its own. Both are checked at the default and at two workers.
func TestRadiusLanesCoupling(t *testing.T) {
	spec := couplingSpec()
	runner := NewCellRunner(0)
	want := map[[2]int]checkpoint.Result{}
	for point := range spec.Values {
		for trial := 0; trial < spec.Trials; trial++ {
			res, err := runner.Run(spec, point, trial)
			if err != nil {
				t.Fatalf("cell (%d,%d): %v", point, trial, err)
			}
			want[[2]int{point, trial}] = res
		}
	}
	for trial := 0; trial < spec.Trials; trial++ {
		for point := 1; point < len(spec.Values); point++ {
			small, large := want[[2]int{point - 1, trial}], want[[2]int{point, trial}]
			if small.Time < large.Time {
				t.Errorf("trial %d: T(R=%v) = %d < T(R=%v) = %d", trial,
					spec.Values[point-1], small.Time, spec.Values[point], large.Time)
			}
		}
	}

	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var steps, violations atomic.Int64
			var first atomic.Value
			j := checkpoint.New()
			cfg := Config{Workers: workers, Journal: j, afterStep: func(lp *lanePool) {
				steps.Add(1)
				for l := 0; l+1 < len(lp.floods); l++ {
					small, large := lp.floods[l].Informed(), lp.floods[l+1].Informed()
					for i := range small {
						if small[i] && !large[i] {
							if violations.Add(1) == 1 {
								first.Store(fmt.Sprintf("step %d: agent %d informed at R=%v but not at R=%v",
									lp.w.Time(), i, lp.g.radii[l], lp.g.radii[l+1]))
							}
							break
						}
					}
				}
			}}
			if _, err := RunSweep(cfg, spec); err != nil {
				t.Fatal(err)
			}
			if n := violations.Load(); n > 0 {
				t.Fatalf("%d steps broke the R coupling; first: %v", n, first.Load())
			}
			if steps.Load() == 0 {
				t.Fatal("the lane observer never ran")
			}
			if j.Len() != spec.Cells() {
				t.Fatalf("journal holds %d cells, want %d", j.Len(), spec.Cells())
			}
			for key, w := range want {
				got, ok := j.Lookup(spec.Unit(key[0], key[1]))
				if !ok || got != w {
					t.Fatalf("cell %v: lane %+v (recorded %t), CellRunner %+v", key, got, ok, w)
				}
			}
		})
	}
}

// A panic in the shared world construction hits every lane of the trial:
// each point gets its own *PanicError naming it, and the other trials run
// on a rebuilt pool.
func TestSharedPanicFailsEveryLane(t *testing.T) {
	var calls atomic.Int32
	factory := func(cfg mobility.Config) (mobility.Model, error) {
		if calls.Add(1) == 1 {
			panic("injected factory failure")
		}
		return mobility.NewMRWP(cfg)
	}
	g := floodGroup{exp: "E99", first: 3, p: sim.Params{N: 300, L: 17.32, V: 0.3, Seed: 42},
		radii: []float64{2, 4, 8}, factory: factory, trials: 3, maxSteps: 20000, src: sourceCentral}
	_, errs := floodTrials(Config{Workers: 1}, g)
	for l, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("lane %d: want *PanicError, got %v", l, err)
		}
		if pe.Point != 3+l || pe.Trial != 0 || pe.Seed != trialSeed(42, 0) {
			t.Errorf("lane %d: wrong coordinates %+v", l, pe)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("factory called %d times, want 2 (pool rebuilt once after the panic)", got)
	}
}

// A CellRunner alternating between two radii of one sweep keeps its world
// and moves only its index: every cell equals a fresh runner's, and a
// radius switch allocates less than a full pool rebuild (a switch of n).
func TestCellRunnerKeepsWorldAcrossRadii(t *testing.T) {
	spec := SweepSpec{Param: "r", Values: []float64{2, 4}, N: 2000, V: 0.3,
		Trials: 8, MaxSteps: 100_000, Seed: 5, Source: "center"}
	runner := NewCellRunner(0)
	for trial := 0; trial < spec.Trials; trial++ {
		for point := range spec.Values {
			got, err := runner.Run(spec, point, trial)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewCellRunner(0).Run(spec, point, trial)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("cell (%d,%d): pooled %+v, fresh %+v", point, trial, got, want)
			}
		}
	}

	other := spec
	other.N = 1999
	type cell struct {
		spec  SweepSpec
		point int
	}
	perCell := func(cells ...cell) float64 {
		r := NewCellRunner(0)
		k := 0
		return testing.AllocsPerRun(20, func() {
			c := cells[k%len(cells)]
			if _, err := r.Run(c.spec, c.point, 0); err != nil {
				t.Fatal(err)
			}
			k++
		})
	}
	same := perCell(cell{spec, 0})
	radius := perCell(cell{spec, 0}, cell{spec, 1})
	rebuild := perCell(cell{spec, 0}, cell{other, 0})
	t.Logf("allocs per cell: same point %v, radius switch %v, full rebuild %v", same, radius, rebuild)
	if radius >= rebuild {
		t.Fatalf("a radius switch allocates %v per cell, no less than a full rebuild (%v)", radius, rebuild)
	}
}

// RunLanes over chunks of a sweep wider than MaxLanes, with lanes left
// out, radius sets changing between calls and a v sweep's single cell in
// between: every running lane's cell equals a fresh runner's Run of it,
// a lane left out is not flooded and its outcome is not written, and the
// runner never holds more than MaxLanes-1 bound indexes.
func TestRunLanesMatchesRun(t *testing.T) {
	// The first chunk holds R = 5 twice (two lanes, two bound indexes);
	// the second repeats the first chunk's smallest radius.
	wide := SweepSpec{Param: "r", Values: []float64{2, 2.5, 3, 5, 4, 5, 6, 8, 2, 12}, N: 600, V: 0.3,
		Trials: 3, MaxSteps: 100_000, Seed: 11, Source: "center"}
	vsweep := SweepSpec{Param: "v", Values: []float64{0.2}, N: 600, R: 3, Trials: 3,
		MaxSteps: 100_000, Seed: 12, Source: "corner"}
	type call struct {
		spec  SweepSpec
		first int
		run   []bool
	}
	all := func(n int) []bool {
		run := make([]bool, n)
		for l := range run {
			run[l] = true
		}
		return run
	}
	calls := []call{
		{wide, 0, all(MaxLanes)},
		{wide, MaxLanes, all(len(wide.Values) - MaxLanes)}, // radii 2 and 12
		{wide, 0, []bool{false, true, true, false, true, true, true, false}},
		{vsweep, 0, all(1)},
		{wide, 3, []bool{true, false, true}},
		{wide, 0, all(MaxLanes)},
	}
	runner := NewCellRunner(0)
	const unwritten = -7
	for trial := 0; trial < wide.Trials; trial++ {
		for k, c := range calls {
			out := make([]checkpoint.Result, len(c.run))
			for l := range out {
				out[l].Time = unwritten
			}
			if err := runner.RunLanes(c.spec, c.first, trial, c.run, out); err != nil {
				t.Fatalf("call %d trial %d: %v", k, trial, err)
			}
			for l, ran := range c.run {
				if !ran {
					if out[l].Time != unwritten || runner.pool.run[l] {
						t.Fatalf("call %d trial %d: lane %d was left out but ran", k, trial, l)
					}
					continue
				}
				want, err := NewCellRunner(0).Run(c.spec, c.first+l, trial)
				if err != nil {
					t.Fatal(err)
				}
				if out[l] != want {
					t.Fatalf("call %d trial %d lane %d: %+v, Run gives %+v", k, trial, l, out[l], want)
				}
			}
			// The world's own count, read past the export boundary: an
			// index the pool dropped but the world still syncs shows here.
			held := reflect.ValueOf(runner.pool.w).Elem().FieldByName("bound").Len()
			if n := len(runner.pool.bound); n > MaxLanes-1 || held != n {
				t.Fatalf("call %d trial %d: the world holds %d bound indexes, the lanes read %d, want at most %d",
					k, trial, held, n, MaxLanes-1)
			}
		}
	}
}

// RunLanes refuses what a unit may not be: more lanes than the cap,
// several lanes of a sweep whose points differ in more than R, and
// outcome slots that do not match the lanes.
func TestRunLanesRejectsBadUnits(t *testing.T) {
	spec := testSpec()
	runner := NewCellRunner(0)
	wide := spec
	wide.Values = make([]float64, MaxLanes+1)
	for i := range wide.Values {
		wide.Values[i] = 3 + float64(i)
	}
	vsweep := spec
	vsweep.Param, vsweep.Values = "v", []float64{0.2, 0.3}
	for _, c := range []struct {
		name string
		spec SweepSpec
		run  []bool
		out  int
		want string
	}{
		{"over the cap", wide, make([]bool, MaxLanes+1), MaxLanes + 1, "lanes"},
		{"v sweep lanes", vsweep, []bool{true, true}, 2, "r sweep"},
		{"outcome slots", spec, []bool{true, true}, 1, "outcomes"},
		{"past the points", spec, []bool{true, true, true}, 3, "out of range"},
	} {
		err := runner.RunLanes(c.spec, 0, 0, c.run, make([]checkpoint.Result, c.out))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	if _, err := runner.Run(spec, 1, 0); err != nil {
		t.Fatalf("runner unusable after refused units: %v", err)
	}
}
