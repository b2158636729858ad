package manhattan

// The benchmark harness regenerates every paper artifact (one benchmark per
// experiment in the E01-E18 table of README.md) plus micro-benchmarks of
// the simulator's hot loops. Experiment benches run in Quick mode so that
// `go test -bench=. -benchmem` completes on a laptop; `cmd/experiments`
// runs the full-size versions and prints the paper-vs-measured tables.
// End-to-end workloads with a per-layer breakdown live in perfbench/; the
// zero-allocation gate over the hot loops is TestSteadyStateAllocs.

import (
	"math"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/core"
	"manhattanflood/internal/experiments"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/mobility"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/spatialindex"
)

func benchCfg(i int) experiments.Config {
	return experiments.Config{Seed: uint64(i) + 1, Quick: true}
}

func benchExperiment(b *testing.B, run func(experiments.Config) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := run(benchCfg(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE01SpatialDensity regenerates Fig. 1's spatial gradient
// (Theorem 1).
func BenchmarkE01SpatialDensity(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E01SpatialDensity(c)
		return err
	})
}

// BenchmarkE02DestinationLaw regenerates Fig. 1's destination cross
// (Theorem 2, Eqs. 4-5).
func BenchmarkE02DestinationLaw(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E02DestinationLaw(c)
		return err
	})
}

// BenchmarkE03FloodVsR regenerates the Theorem 3 R-dependence sweep.
func BenchmarkE03FloodVsR(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E03FloodVsR(c)
		return err
	})
}

// BenchmarkE04FloodVsV regenerates the Theorem 3 v-dependence sweep.
func BenchmarkE04FloodVsV(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E04FloodVsV(c)
		return err
	})
}

// BenchmarkE05CentralZone regenerates the Theorem 10 / Corollary 12 check.
func BenchmarkE05CentralZone(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E05CentralZone(c)
		return err
	})
}

// BenchmarkE06SuburbDiameter regenerates the Lemma 15 Suburb-extent scan.
func BenchmarkE06SuburbDiameter(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E06SuburbDiameter(c)
		return err
	})
}

// BenchmarkE07LowerBound regenerates the Theorem 18 construction.
func BenchmarkE07LowerBound(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E07LowerBound(c)
		return err
	})
}

// BenchmarkE08Connectivity regenerates the Section 1 connectivity contrast.
func BenchmarkE08Connectivity(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E08Connectivity(c)
		return err
	})
}

// BenchmarkE09Turns regenerates the Lemma 13 turn-count check.
func BenchmarkE09Turns(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E09Turns(c)
		return err
	})
}

// BenchmarkE10Expansion regenerates the Lemma 9 expansion stress test.
func BenchmarkE10Expansion(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E10Expansion(c)
		return err
	})
}

// BenchmarkE11SuburbLag regenerates the headline Suburb-lag grid.
func BenchmarkE11SuburbLag(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E11SuburbLag(c)
		return err
	})
}

// BenchmarkE12DensityCondition regenerates the Lemma 7 density check.
func BenchmarkE12DensityCondition(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E12DensityCondition(c)
		return err
	})
}

// BenchmarkE13PerfectSim regenerates the initializer ablation.
func BenchmarkE13PerfectSim(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E13PerfectSim(c)
		return err
	})
}

// BenchmarkE14Models regenerates the mobility-model comparison.
func BenchmarkE14Models(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E14Models(c)
		return err
	})
}

// BenchmarkE15InfectionTree regenerates the infection-tree geometry scan.
func BenchmarkE15InfectionTree(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E15InfectionTree(c)
		return err
	})
}

// BenchmarkE16Meetings regenerates the Lemma 16 meeting measurement.
func BenchmarkE16Meetings(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E16Meetings(c)
		return err
	})
}

// BenchmarkE17PauseAblation regenerates the way-point-pause ablation.
func BenchmarkE17PauseAblation(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E17PauseAblation(c)
		return err
	})
}

// BenchmarkE18SnapshotDependence regenerates the snapshot-dependence scan.
func BenchmarkE18SnapshotDependence(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) error {
		_, err := experiments.E18SnapshotDependence(c)
		return err
	})
}

// --- micro-benchmarks of the simulator's hot loops ---

// BenchmarkWorldStep10k measures one lockstep move + index sync for
// 10000 MRWP agents: the population step with the fused
// advance→classify pass feeding the index's precomputed-cells paths.
func BenchmarkWorldStep10k(b *testing.B) {
	w, err := sim.NewWorld(sim.Params{N: 10000, L: 100, R: 4, V: 0.3, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

// BenchmarkCellRunnerLanes2k measures floodd's compute per cell at
// floodd_durable's shape (n = 2000, r in {2, 4}, eight trials), with the
// ops alternating between two jobs that differ only in seed. per_cell
// runs a trial's two cells one at a time (CellRunner.Run: a Reset and a
// trajectory per cell, and a radius switch between cells); per_unit runs
// them as the two lanes of one unit (CellRunner.RunLanes: one Reset, one
// trajectory), the way floodd dispatches an r sweep.
func BenchmarkCellRunnerLanes2k(b *testing.B) {
	jobs := [2]experiments.SweepSpec{flooddUnitSpec(1), flooddUnitSpec(2)}
	for _, bc := range []struct {
		name  string
		lanes bool
	}{
		{"per_cell", false},
		{"per_unit", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			runner := experiments.NewCellRunner(0)
			run := []bool{true, true}
			out := make([]checkpoint.Result, len(run))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := jobs[i%2]
				trial := i / 2 % spec.Trials
				if bc.lanes {
					if err := runner.RunLanes(spec, 0, trial, run, out); err != nil {
						b.Fatal(err)
					}
					continue
				}
				for point := range spec.Values {
					if _, err := runner.Run(spec, point, trial); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(run)), "ns/cell")
		})
	}
}

// BenchmarkWorldReset2k measures World.Reset of a sweep_mc_2k-sized world
// (2000 agents, L = sqrt(2000)): every agent's stream reseeded, its
// stationary state drawn and written into the population's columns, and
// the index rebuilt — the per-trial set-up of a pooled sweep. The paused
// model draws a pause phase for some agents and the Palm trip for the
// rest, and places trips under the other corner convention.
func BenchmarkWorldReset2k(b *testing.B) {
	const n = 2000
	for _, bc := range []struct {
		name    string
		factory sim.ModelFactory
	}{
		{"mrwp", nil},
		{"paused", sim.PausedMRWPFactory(8)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w, err := sim.NewWorld(sim.Params{N: n, L: math.Sqrt(n), R: 4, V: 0.3, Seed: 1}, bc.factory)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset(uint64(i) + 2)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/agent")
		})
	}
}

// BenchmarkMobilityAdvance10k measures the raw SoA mobility advance —
// agents through Population.StepRange, no index, no classify: the pure
// kinematics cost that the world step builds on, reported per agent. The
// cases are MRWP and paused MRWP (pause 20, dirty bitmap bound as the
// world binds it) at 10k agents, L = 100, V = 0.3, and MRWP at the
// flood_sparse_100k geometry (100k agents, L = 2*sqrt(n), V = 0.1).
func BenchmarkMobilityAdvance10k(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		cfg  mobility.Config
		// pause is the paused-MRWP maximum pause, 0 for plain MRWP.
		pause float64
	}{
		{"mrwp_10k", 10000, mobility.Config{L: 100, V: 0.3}, 0},
		{"paused_10k", 10000, mobility.Config{L: 100, V: 0.3}, 20},
		{"mrwp_100k_sparse", 100000, mobility.Config{L: 2 * math.Sqrt(100000), V: 0.1}, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var model mobility.Model
			var err error
			if bc.pause > 0 {
				model, err = mobility.NewPausedMRWP(bc.cfg, bc.pause)
			} else {
				model, err = mobility.NewMRWP(bc.cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
			n := bc.n
			view := mobility.View{X: make([]float64, n), Y: make([]float64, n)}
			if !model.NeverRests() {
				view.Dirty = make([]bool, n)
			}
			pop := mobility.BulkStepper(model).NewPopulation(n)
			pop.Bind(view)
			for i := 0; i < n; i++ {
				pop.InitAgent(i, rand.New(rand.NewPCG(1, uint64(i))))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop.StepRange(0, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/agent")
		})
	}
}

// floodStepBench measures one steady-state flooding step (move +
// transmission round) at n agents, unit density, R = 4 and V = 0.3.
func floodStepBench(b *testing.B, n int, chaining bool) {
	b.Helper()
	floodStepBenchWith(b, sim.Params{N: n, L: math.Sqrt(float64(n)), R: 4, V: 0.3}, chaining)
}

// floodStepBenchWith measures one flooding step of world p from the
// central source: a single Flooding is stepped repeatedly, and the
// (untimed) flood restart when it completes keeps every timed iteration a
// live transmission round. One untimed flood first grows every lazily
// sized buffer, and a restart resets the world to the next seed and the
// flood to that world's central agent, keeping every buffer, so the timed
// steps are the steady state: 0 allocs/op. p.Seed is overwritten per
// flood.
func floodStepBenchWith(b *testing.B, p sim.Params, chaining bool) {
	b.Helper()
	center := geom.Pt(p.L/2, p.L/2)
	seed := uint64(1)
	p.Seed = seed
	w, err := sim.NewWorld(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	var opts []core.FloodOption
	if chaining {
		opts = append(opts, core.WithinStepChaining(true))
	}
	f, err := core.NewFlooding(w, w.NearestAgent(center), opts...)
	if err != nil {
		b.Fatal(err)
	}
	for !f.Done() {
		f.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Done() {
			b.StopTimer()
			seed++
			w.Reset(seed)
			if err := f.Reset(w.NearestAgent(center)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		f.Step()
	}
}

// BenchmarkFloodStep4k measures one flooding step (move + transmissions)
// at 4000 agents in the steady state.
func BenchmarkFloodStep4k(b *testing.B) { floodStepBench(b, 4000, false) }

// BenchmarkFloodStep4kChained is the within-step-chaining ablation of
// BenchmarkFloodStep4k.
func BenchmarkFloodStep4kChained(b *testing.B) { floodStepBench(b, 4000, true) }

// BenchmarkFloodStep20k measures the steady-state flooding step at 20000
// agents — the scale where per-step O(n) scans dominate.
func BenchmarkFloodStep20k(b *testing.B) { floodStepBench(b, 20000, false) }

// BenchmarkFloodStep100kTiled measures a whole Flooding.Step at the
// flood_sparse_100k geometry: 100k agents on a side of 2*sqrt(n), R = 4,
// V = 0.1, a 4x4 tiling on 2 workers. Every step syncs the index through
// the tiled delta path and the sweep settles the coordinates it reads.
func BenchmarkFloodStep100kTiled(b *testing.B) {
	const n = 100000
	floodStepBenchWith(b, sim.Params{N: n, L: 2 * math.Sqrt(n), R: 4, V: 0.1, Tiles: 4, Workers: 2}, false)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/agent")
}

// BenchmarkFullFlood2k measures a complete flooding run at 2000 agents.
func BenchmarkFullFlood2k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(StandardConfig(2000, 5, 0.4, uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Flood(FloodOptions{MaxSteps: 100000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepTrialsE03 measures Monte-Carlo trial throughput at the
// E03 quick point (n=800, largest sweep radius R=16, v=0.1, central
// source, 8 trials per op) through experiments.RunSweep, the production
// trial fan-out with one pooled world per worker.
func BenchmarkSweepTrialsE03(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(experiments.Config{}, experiments.SweepSpec{
			Param: "r", Values: []float64{16}, N: 800, V: 0.1,
			Trials: 8, MaxSteps: 20000, Seed: uint64(i) + 1, Source: "center",
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Points[0].Completed == 0 {
			b.Fatal("no trial completed")
		}
	}
}

// BenchmarkStationaryInit10k measures perfect-simulation initialization of
// 10000 agents.
func BenchmarkStationaryInit10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(StandardConfig(10000, 4, 0.3, uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPoints generates a deterministic stationary-looking point cloud for
// index micro-benchmarks without paying mobility-model costs.
func benchPoints(n int, l float64, seed uint64) []geom.Point {
	rng := rand.New(rand.NewPCG(seed, 0xbe7c4))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*l, rng.Float64()*l)
	}
	return pts
}

// BenchmarkIndexRebuild10k measures one CSR counting-sort rebuild of the
// neighbor index over 10000 points.
func BenchmarkIndexRebuild10k(b *testing.B) {
	const n, l, r = 10000, 100.0, 4.0
	pts := benchPoints(n, l, 1)
	ix, err := spatialindex.New(l, r)
	if err != nil {
		b.Fatal(err)
	}
	ix.Rebuild(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Rebuild(pts)
	}
}

// BenchmarkIndexNeighbors10k measures fixed-radius queries through the
// append-based Neighbors API (one query per indexed point).
func BenchmarkIndexNeighbors10k(b *testing.B) {
	const n, l, r = 10000, 100.0, 4.0
	pts := benchPoints(n, l, 1)
	ix, err := spatialindex.New(l, r)
	if err != nil {
		b.Fatal(err)
	}
	ix.Rebuild(pts)
	dst := make([]int, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % n
		dst = ix.Neighbors(pts[q], q, dst[:0])
	}
}
