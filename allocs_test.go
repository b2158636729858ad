package manhattan

import (
	"io"
	"math"
	"testing"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/core"
	"manhattanflood/internal/experiments"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/spatialindex"
	"manhattanflood/internal/tracev2"
)

// TestSteadyStateAllocs is the zero-allocation gate over the hot loops:
// after its warm-up runs let every reusable buffer reach capacity, each op
// must perform 0 allocations. Allocation counts are exact, so the gate
// passes or fails identically on any hardware and under either build
// variant. It must not run in parallel with other tests, whose
// allocations testing.AllocsPerRun would count.
func TestSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		// warmups is how many uncounted runs of op precede the measurement.
		warmups int
		// setup builds the subject and returns the measured operation.
		setup func(t *testing.T) func()
	}{
		{"world_step_10k", 30, func(t *testing.T) func() {
			return allocWorld(t, sim.Params{N: 10000, L: 100, R: 4, V: 0.3, Seed: 1}).Step
		}},
		{"world_step_10k_t4", 30, func(t *testing.T) func() {
			return allocWorld(t, sim.Params{N: 10000, L: 100, R: 4, V: 0.3, Seed: 1, Tiles: 4}).Step
		}},
		// The tiled delta path the 100k sparse-flood workload runs: at
		// V/R = 0.025 the world syncs through UpdateCells, sharded over
		// two workers (world_step_10k_t4 at V/R = 0.075 takes the rebuild).
		{"world_step_10k_t4_delta", 30, func(t *testing.T) func() {
			return allocWorld(t, sim.Params{N: 10000, L: 100, R: 4, V: 0.1, Seed: 1, Tiles: 4, Workers: 2}).Step
		}},
		// The pooled-trial reset: every agent re-drawn from its reseeded
		// stream in place. A per-agent heap object (a rand.Rand wrapper
		// that escapes, a compiled path) shows up here.
		// The facade's Step with an observer attached: the position-only
		// view goes to the observer by value, with no copy of the columns.
		{"sim_step_observed_10k", 30, func(t *testing.T) func() {
			s, err := New(Config{N: 10000, L: 100, R: 4, V: 0.3, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			s.Attach(nopObserver{})
			return s.Step
		}},
		{"world_reset_2k", 3, func(t *testing.T) func() {
			world := allocWorld(t, sim.Params{N: 2000, L: math.Sqrt(2000), R: 4, V: 0.3, Seed: 1})
			seed := uint64(1)
			return func() {
				seed++
				world.Reset(seed)
			}
		}},
		{"flood_step_4k", 40, func(t *testing.T) func() {
			return newAllocFlood(t, 4000, false, 0)
		}},
		{"flood_step_4k_chained", 40, func(t *testing.T) func() {
			return newAllocFlood(t, 4000, true, 0)
		}},
		{"flood_step_4k_t4", 40, func(t *testing.T) func() {
			return newAllocFlood(t, 4000, false, 4)
		}},
		// The tiled flood step on the delta route: at V/R = 0.025 the
		// world syncs through UpdateCells sharded over two workers, and the
		// sweep plans, settles and evaluates (flood_step_4k_t4 at V/R =
		// 0.075 takes the rebuild).
		{"flood_step_4k_t4_delta", 40, func(t *testing.T) func() {
			return newAllocFloodWith(t, sim.Params{N: 4000, R: 4, V: 0.1, Seed: 1, Tiles: 4, Workers: 2}, nil, false)
		}},
		// A world that can rest: PausedMRWP at V/R = 0.025, so every step
		// syncs the index through the dirty-bitmap Update and then sweeps.
		{"flood_step_4k_paused", 40, func(t *testing.T) func() {
			return newAllocFloodWith(t, sim.Params{N: 4000, R: 4, V: 0.1, Seed: 1}, sim.PausedMRWPFactory(20), false)
		}},
		// A gossip still spreading through every counted round: at R = 2,
		// V = 0.1 it completes after about 150 steps, well past the 40
		// warm-ups and 21 runs, so the marked/newly bookkeeping of a
		// spreading round is what gets counted.
		{"kgossip_step_4k", 40, func(t *testing.T) func() {
			l := math.Sqrt(4000.0)
			world := allocWorld(t, sim.Params{N: 4000, L: l, R: 2, V: 0.1, Seed: 1})
			g, err := core.NewKGossip(world, world.NearestAgent(geom.Pt(l/2, l/2)), 2, 99)
			if err != nil {
				t.Fatal(err)
			}
			return spreadingOp(t, g)
		}},
		// Tree and parsimonious flooding, still spreading through every
		// counted round: at L = 1.5*sqrt(n), R = 2, V = 0.1 both take over
		// 200 steps, while the tiled sweep's per-tile buffers have stopped
		// growing by step 45. The tree runs on the tiled world, so the
		// parent pass reads the tiled sweep's settled rows.
		{"tree_step_4k_t4", 60, func(t *testing.T) func() {
			l := 1.5 * math.Sqrt(4000.0)
			world := allocWorld(t, sim.Params{N: 4000, L: l, R: 2, V: 0.1, Seed: 1, Tiles: 4})
			f, err := core.NewTreeFlooding(world, world.NearestAgent(geom.Pt(l/2, l/2)))
			if err != nil {
				t.Fatal(err)
			}
			return spreadingOp(t, f)
		}},
		{"parsimonious_step_4k", 60, func(t *testing.T) func() {
			l := 1.5 * math.Sqrt(4000.0)
			world := allocWorld(t, sim.Params{N: 4000, L: l, R: 2, V: 0.1, Seed: 1})
			f, err := core.NewParsimoniousFlooding(world, world.NearestAgent(geom.Pt(l/2, l/2)), 0.5, 99)
			if err != nil {
				t.Fatal(err)
			}
			return spreadingOp(t, f)
		}},
		// One whole trial of sweep_mc_2k's radius lanes: the world at
		// r = 2 plus indexes bound at 4, 8 and 16 (V/R on both sides of the
		// delta switch), each lane flooding with its own partition until
		// done. The trial seeds cycle, so the warm-ups have grown every
		// scratch buffer the counted trials need.
		{"sweep_lanes_2k", 8, func(t *testing.T) func() {
			return newLaneTrialOp(t)
		}},
		// floodd's dispatch unit at floodd_durable's shape: one trial of
		// r in {2, 4} at n = 2000 as the two lanes of a CellRunner, the
		// units alternating between two jobs that differ only in seed.
		// Each of the 16 (job, trial) units runs once in the warm-ups.
		{"cellrunner_lanes_2k", 16, func(t *testing.T) func() {
			return newCellRunnerLanesOp(t)
		}},
		{"trace_write_100k", 3, func(t *testing.T) func() {
			return newTraceWriteOp(t, 100000)
		}},
		{"index_update_10k", 8, func(t *testing.T) func() {
			const l, r = 100.0, 4.0
			world := allocWorld(t, sim.Params{N: 10000, L: l, R: r, V: 0.1, Seed: 7})
			ax := append([]float64(nil), world.X()...)
			ay := append([]float64(nil), world.Y()...)
			world.Step()
			bx := append([]float64(nil), world.X()...)
			by := append([]float64(nil), world.Y()...)
			ix, err := spatialindex.New(l, r)
			if err != nil {
				t.Fatal(err)
			}
			ix.RebuildXY(ax, ay)
			flip := false
			return func() {
				if flip {
					ix.Update(ax, ay, nil)
				} else {
					ix.Update(bx, by, nil)
				}
				flip = !flip
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			op := c.setup(t)
			for i := 0; i < c.warmups; i++ {
				op()
			}
			if avg := testing.AllocsPerRun(20, op); avg > 0 {
				t.Errorf("%.2f allocs/op in the steady state, want 0", avg)
			}
		})
	}
}

func allocWorld(t *testing.T, p sim.Params) *sim.World {
	t.Helper()
	w, err := sim.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// newAllocFlood builds a steady-state flood step op for the alloc gate.
func newAllocFlood(t *testing.T, n int, chained bool, tiles int) func() {
	return newAllocFloodWith(t, sim.Params{N: n, R: 4, V: 0.3, Seed: 1, Tiles: tiles}, nil, chained)
}

// newAllocFloodWith builds a flood step op over p (L set to sqrt(N), unit
// density) from the central source. A completed flood restarts from the
// reset world and the same source, so every measured op runs a real step
// however few steps the flood takes.
func newAllocFloodWith(t *testing.T, p sim.Params, factory sim.ModelFactory, chained bool) func() {
	t.Helper()
	p.L = math.Sqrt(float64(p.N))
	world, err := sim.NewWorld(p, factory)
	if err != nil {
		t.Fatal(err)
	}
	var opts []core.FloodOption
	if chained {
		opts = append(opts, core.WithinStepChaining(true))
	}
	src := world.NearestAgent(geom.Pt(p.L/2, p.L/2))
	f, err := core.NewFlooding(world, src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		if f.Done() {
			world.Reset(p.Seed)
			if err := f.Reset(src); err != nil {
				t.Fatal(err)
			}
		}
		f.Step()
	}
}

// spreadingOp steps p once per op. The cleanup, which runs after the
// measurement, fails the test if p completed: the counted rounds must be
// spreading rounds, so the geometry has to keep p unfinished through
// them.
func spreadingOp(t *testing.T, p core.Process) func() {
	t.Cleanup(func() {
		if p.Done() {
			t.Error("the process completed before the counted rounds ended; pick a slower geometry")
		}
	})
	return func() { p.Step() }
}

// newLaneTrialOp builds a steady-state op that runs one trial of four
// radius lanes over one pooled world (core.Lanes), the way the sweep
// runner pools them: Reset, a source, a reset flood per lane, then
// core.Run of the lanes until every lane is done.
func newLaneTrialOp(t *testing.T) func() {
	t.Helper()
	const n = 2000
	radii := []float64{2, 4, 8, 16}
	l := math.Sqrt(n)
	world := allocWorld(t, sim.Params{N: n, L: l, R: radii[0], V: 0.3, Seed: 1})
	floods := make([]*core.Flooding, len(radii))
	for k, r := range radii {
		part, err := cells.NewPartition(l, r, n)
		if err != nil {
			t.Fatal(err)
		}
		opts := []core.FloodOption{core.WithPartition(part)}
		if k > 0 {
			ix, err := world.BindIndex(r)
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, core.OnIndex(ix))
		}
		if floods[k], err = core.NewFlooding(world, 0, opts...); err != nil {
			t.Fatal(err)
		}
	}
	lanes, err := core.NewLanes(world, floods)
	if err != nil {
		t.Fatal(err)
	}
	run := []bool{true, true, true, true}
	trial := 0
	return func() {
		trial++
		world.Reset(uint64(trial%4) + 1)
		src, _ := core.SourcePair(world)
		for _, f := range floods {
			if err := f.Reset(src); err != nil {
				t.Fatal(err)
			}
		}
		if err := lanes.Start(run); err != nil {
			t.Fatal(err)
		}
		if err := core.Run(nil, lanes, 100_000, nil); err != nil {
			t.Fatal(err)
		}
		if !lanes.Result(0).Completed {
			t.Fatal("the r = 2 lane did not complete")
		}
	}
}

// flooddUnitSpec is one floodd_durable job: an r sweep of 2000 agents
// over r = 2 and 4, eight trials.
func flooddUnitSpec(seed uint64) experiments.SweepSpec {
	return experiments.SweepSpec{Param: "r", Values: []float64{2, 4}, N: 2000, V: 0.3,
		Trials: 8, MaxSteps: 100_000, Seed: seed, Source: "center"}
}

// newCellRunnerLanesOp builds a steady-state op that runs one floodd
// unit — a trial of both radii as lanes — on one CellRunner, cycling
// through the trials of two interleaved jobs.
func newCellRunnerLanesOp(t *testing.T) func() {
	t.Helper()
	jobs := [2]experiments.SweepSpec{flooddUnitSpec(1), flooddUnitSpec(2)}
	runner := experiments.NewCellRunner(0)
	run := []bool{true, true}
	out := make([]checkpoint.Result, 2)
	k := 0
	return func() {
		spec := jobs[k%2]
		trial := k / 2 % spec.Trials
		k++
		if err := runner.RunLanes(spec, 0, trial, run, out); err != nil {
			t.Fatal(err)
		}
		if !out[0].Completed {
			t.Fatal("the r = 2 lane did not complete")
		}
	}
}

// newTraceWriteOp builds a steady-state trace WriteStep op at population
// scale: two consecutive world frames are replayed in ping-pong order, so
// every op encodes one real mobility step's worth of position deltas, plus
// a representative flooding block (a one-third informed bitmap era with a
// few hundred newly-informed ids per step). The io.Discard sink isolates
// encoding from the filesystem.
func newTraceWriteOp(t *testing.T, n int) func() {
	t.Helper()
	l := math.Sqrt(float64(n))
	w := allocWorld(t, sim.Params{N: n, L: l, R: 4, V: 0.3, Seed: 1})
	ax := append([]float64(nil), w.X()...)
	ay := append([]float64(nil), w.Y()...)
	w.Step()
	bx := append([]float64(nil), w.X()...)
	by := append([]float64(nil), w.Y()...)
	informed := make([]bool, n)
	for i := 0; i < n/3; i++ {
		informed[i*3] = true
	}
	newly := make([]int32, 256)
	for i := range newly {
		newly[i] = int32(i * (n / len(newly)))
	}
	wr, err := tracev2.NewWriter(io.Discard, tracev2.RunInfo{
		N: n, L: l, R: 4, V: 0.3, Seed: 1, Model: "mrwp",
	})
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	return func() {
		step++
		x, y := bx, by
		if step%2 == 0 {
			x, y = ax, ay
		}
		if err := wr.WriteStep(step, x, y, informed, newly); err != nil {
			t.Fatal(err)
		}
	}
}

// nopObserver accepts every view.
type nopObserver struct{}

func (nopObserver) ObserveStep(StepView) error { return nil }
