// Command bench runs the simulator's hot-loop micro-benchmarks outside of
// `go test` and writes the results as a JSON trajectory file, so successive
// PRs can prove (or disprove) speedups against committed numbers.
//
// Usage:
//
//	bench [-out BENCH_7.json] [-compare OLD.json] [-k N] [-allocs] [-scale]
//
// Each entry reports ns/op, B/op and allocs/op as measured by
// testing.Benchmark. With -k > 1 every benchmark is measured k times and
// the median run is reported (all samples are recorded in ns_samples);
// -compare defaults k to 3, since the shared reference box drifts by
// double-digit percentages between sessions and a single sample would
// fail — or mask — the gate on noise. With -compare the run is diffed
// against a previously committed trajectory file: any benchmark present
// in both whose median ns/op regressed by more than 20% fails the run
// (non-zero exit), which is the CI regression gate (`make ci`). The
// committed BENCH_1.json carries the seed engine's numbers as
// baseline_ns_per_op; BENCH_2.json is the SoA-positions trajectory,
// BENCH_3.json the delta-index one, BENCH_4.json the
// dirty-driven-flooding one, BENCH_5.json the vectorized
// distance-kernel one, BENCH_6.json the SoA mobility-state trajectory
// with the fused advance→classify pass, and BENCH_7.json — the tiled-
// world trajectory — is what the gate compares against by default.
// mobility_advance_10k isolates the raw Population.StepRange kinematics
// without any index work; classify_100k isolates the batched
// position→bucket kernel (vectorized float→int32 conversion) that feeds
// the fused pass.
//
// # Scale series (-scale)
//
// -scale appends the scale_ benchmark family, flat versus tiled
// (sim.Params.Tiles) at a fixed worker count: 100k- and 1M-agent world
// steps (the tiled counting sort's locality story), and budgeted whole
// floods at 100k and 1M agents in the paper's sparse regime
// (L = 2*sqrt(n), ~4 agents per bucket), where the tiled sweep's
// whole-tile frontier skips beat the flat sweep's per-bucket skip scan
// — the t4/t8 pair records the tile-count curve. These run minutes, not
// seconds, so they are opt-in and excluded from the ordinary
// `make bench` loop; the -compare gate only diffs benchmarks present in
// both files, so trajectory files with and without the family stay
// comparable.
//
// # Hardware comparability
//
// The -compare gate diffs absolute ns/op, which is only meaningful on
// the machine class that recorded the baseline. Every trajectory file
// records the host's CPU model; when the current host's model differs
// from the baseline's, the gate is skipped with a clear message (exit 0)
// instead of failing spuriously — this is what keeps `make ci` honest on
// GitHub-hosted runners. Set BENCH_FORCE_COMPARE=1 to enforce the gate
// regardless, or BENCH_SKIP_COMPARE=1 to skip it even on matching
// hardware.
//
// # Allocation gate (-allocs)
//
// -allocs runs the hardware-independent allocation gate instead of the
// timing benchmarks: the steady-state hot loops — world step, plain,
// chained, tiled and paused flood step, KGossip step, and the spatial
// index's delta update — must perform zero allocations per operation.
// Unlike the ns/op gate this holds on any machine, so it is the leg of
// the benchmark suite that CI runs on every push.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"manhattanflood/internal/core"
	"manhattanflood/internal/experiments"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/kernel"
	"manhattanflood/internal/mobility"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/spatialindex"
	"manhattanflood/internal/tracev2"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// NsSamples holds every run's ns/op when the benchmark was run more
	// than once (see -k); the headline NsPerOp above is their median run.
	NsSamples []float64 `json:"ns_samples,omitempty"`
	// BaselineNsPerOp is the seed engine's number for this benchmark on
	// the reference machine, when known (0 = benchmark introduced after
	// the baseline was taken).
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
}

// Report is the file layout of BENCH_N.json.
type Report struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel fingerprints the host that recorded the report; -compare
	// skips its absolute ns/op gate when models differ (files recorded
	// before the field existed compare as before). Empty when the
	// platform exposes no model string.
	CPUModel string `json:"cpu_model,omitempty"`
	// KernelPath records which distance-kernel implementation ran
	// ("avx2" or "generic") — numbers from different paths are not
	// comparable like-for-like.
	KernelPath string   `json:"kernel_path,omitempty"`
	Timestamp  string   `json:"timestamp"`
	Results    []Result `json:"results"`
}

// cpuModel reads the host CPU model name, best-effort: the first "model
// name" line of /proc/cpuinfo on Linux, empty elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// baselines are the seed-engine numbers measured on the reference machine
// (Intel Xeon @ 2.70GHz, single core) with the same benchmark bodies,
// before the flat-CSR index and frontier flooding rewrite.
var baselines = map[string]float64{
	"world_step_10k":        728402,
	"flood_step_4k":         2176070,
	"flood_step_4k_chained": 5764699,
	"flood_step_20k":        11433482,
	"index_rebuild_10k":     42823,
	"index_neighbors_10k":   1145,
}

// maxRegression is the tolerated ns/op growth versus the -compare file.
const maxRegression = 1.20

func main() {
	out := flag.String("out", "BENCH_7.json", "output JSON path")
	compare := flag.String("compare", "", "previously committed BENCH_N.json to diff against; >20% ns/op regressions exit non-zero")
	k := flag.Int("k", 0, "runs per benchmark; the reported number is the median run (0 = auto: 3 with -compare, else 1)")
	allocs := flag.Bool("allocs", false, "run the hardware-independent zero-allocation gate instead of the timing benchmarks")
	scale := flag.Bool("scale", false, "append the scale_ family: 100k/1M-agent flat-vs-tiled steps (minutes, not seconds)")
	flag.Parse()
	if *allocs {
		if failures := runAllocGate(os.Stdout); failures > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d hot loop(s) allocate in the steady state\n", failures)
			os.Exit(1)
		}
		fmt.Println("allocs gate: ok (all hot loops are 0 allocs/op in the steady state)")
		return
	}
	if *k <= 0 {
		if *compare != "" {
			// The regression gate compares absolute ns/op on a shared,
			// noisy box; the median of three runs keeps one descheduled
			// run from failing (or masking) the 20% gate.
			*k = 3
		} else {
			*k = 1
		}
	}

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"world_step_10k", benchWorldStep(10000)},
		{"mobility_advance_10k", benchMobilityAdvance(10000)},
		{"flood_step_4k", benchFloodStep(4000, false)},
		{"flood_step_4k_chained", benchFloodStep(4000, true)},
		{"flood_step_20k", benchFloodStep(20000, false)},
		{"kgossip_step_4k", benchKGossipStep(4000)},
		{"index_rebuild_10k", benchIndexRebuild(10000)},
		{"index_update_10k", benchIndexUpdate(10000)},
		{"index_neighbors_10k", benchIndexNeighbors(10000)},
		{"kernel_span_16", benchKernelSpan(16)},
		{"kernel_span_64", benchKernelSpan(64)},
		{"kernel_span_256", benchKernelSpan(256)},
		{"classify_100k", benchClassify(100000)},
		{"full_flood_2k", benchFullFlood(2000)},
		{"trace_write_100k", benchTraceWrite(100000)},
		{"world_step_10k_traced", benchWorldStepTraced(10000)},
		{"flood_step_4k_traced", benchFloodStepTraced(4000)},
		{"sweep_trials_e03", benchSweepTrials(true)},
		{"sweep_trials_e03_fresh", benchSweepTrials(false)},
	}
	if *scale {
		// Flat-vs-tiled at a fixed worker count: the flat entries are the
		// baselines the tiled entries are judged against. The flood family
		// (budgeted whole floods in the paper's sparse regime) is where
		// the tiled sweep's frontier skips win on any hardware; the
		// world-step family records the counting-sort locality story,
		// which only pays off when the working set exceeds cache.
		benches = append(benches, []struct {
			name string
			fn   func(b *testing.B)
		}{
			{"scale_world_step_100k_flat", benchWorldStepScale(100000, 0, scaleWorkers)},
			{"scale_world_step_100k_t4", benchWorldStepScale(100000, 4, scaleWorkers)},
			{"scale_world_step_1m_flat", benchWorldStepScale(1000000, 0, scaleWorkers)},
			{"scale_world_step_1m_t8", benchWorldStepScale(1000000, 8, scaleWorkers)},
			{"scale_flood_100k_flat", benchFloodScale(100000, 0, scaleWorkers)},
			{"scale_flood_100k_t4", benchFloodScale(100000, 4, scaleWorkers)},
			{"scale_flood_100k_t8", benchFloodScale(100000, 8, scaleWorkers)},
			{"scale_flood_1m_flat", benchFloodScale(1000000, 0, scaleWorkers)},
			{"scale_flood_1m_t8", benchFloodScale(1000000, 8, scaleWorkers)},
		}...)
	}

	rep := Report{
		Schema:     "manhattanflood/bench/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		KernelPath: kernel.Path(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, bench := range benches {
		r := runBenchMedian(bench.fn, *k)
		r.Name = bench.name
		r.BaselineNsPerOp = baselines[bench.name]
		rep.Results = append(rep.Results, r)
		speedup := ""
		if r.BaselineNsPerOp > 0 && r.NsPerOp > 0 {
			speedup = fmt.Sprintf("  (%.2fx vs seed)", r.BaselineNsPerOp/r.NsPerOp)
		}
		fmt.Printf("%-24s %12.0f ns/op %8d B/op %6d allocs/op%s\n",
			bench.name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, speedup)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *compare != "" {
		old, err := loadReport(*compare)
		if err != nil {
			fatal(err)
		}
		if reason, skip := compareSkipReason(old, rep); skip {
			fmt.Printf("compare vs %s: SKIPPED — %s\n", *compare, reason)
			fmt.Println("(absolute ns/op gates only hold on the baseline's machine class; " +
				"set BENCH_FORCE_COMPARE=1 to enforce anyway, or record a local baseline " +
				"with `make bench-json BENCH_BASELINE=/tmp/local.json` first)")
			return
		}
		regressions := compareReports(os.Stdout, old, rep)
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d benchmark(s) regressed more than %.0f%% vs %s\n",
				regressions, (maxRegression-1)*100, *compare)
			os.Exit(1)
		}
		fmt.Printf("compare vs %s: ok (no hot-loop benchmark regressed more than %.0f%%)\n",
			*compare, (maxRegression-1)*100)
	}
}

// compareSkipReason decides whether the absolute ns/op gate is
// meaningful on this host: a baseline recorded on a different CPU model
// (or a different kernel path) would fail or pass on hardware, not on
// code. BENCH_SKIP_COMPARE=1 always skips; BENCH_FORCE_COMPARE=1 always
// enforces; otherwise the gate self-disables exactly when both reports
// carry fingerprints and they disagree.
func compareSkipReason(old, cur Report) (string, bool) {
	if os.Getenv("BENCH_FORCE_COMPARE") == "1" {
		return "", false
	}
	if os.Getenv("BENCH_SKIP_COMPARE") == "1" {
		return "BENCH_SKIP_COMPARE=1", true
	}
	if old.CPUModel != "" && cur.CPUModel != "" && old.CPUModel != cur.CPUModel {
		return fmt.Sprintf("baseline hardware %q != this host %q", old.CPUModel, cur.CPUModel), true
	}
	if old.KernelPath != "" && cur.KernelPath != "" && old.KernelPath != cur.KernelPath {
		return fmt.Sprintf("baseline kernel path %q != this build %q", old.KernelPath, cur.KernelPath), true
	}
	return "", false
}

// loadReport reads a committed trajectory file.
func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("bench: reading compare file: %w", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return rep, nil
}

// compareReports prints the old-vs-new table for benchmarks present in
// both reports and returns how many regressed beyond maxRegression.
func compareReports(w io.Writer, old, cur Report) int {
	oldByName := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldByName[r.Name] = r
	}
	regressions := 0
	for _, r := range cur.Results {
		o, ok := oldByName[r.Name]
		if !ok || o.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		ratio := r.NsPerOp / o.NsPerOp
		verdict := "ok"
		if ratio > maxRegression {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "compare %-24s %12.0f -> %12.0f ns/op  (%.2fx)  %s\n",
			r.Name, o.NsPerOp, r.NsPerOp, ratio, verdict)
	}
	return regressions
}

func runBench(fn func(b *testing.B)) Result {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return Result{
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
}

// runBenchMedian measures fn k times and reports the run with the median
// ns/op (all samples recorded in NsSamples). Session noise on the shared
// reference box swings single samples by double-digit percentages; the
// median keeps one descheduled run from deciding the regression gate in
// either direction.
func runBenchMedian(fn func(b *testing.B), k int) Result {
	if k <= 1 {
		return runBench(fn)
	}
	runs := make([]Result, k)
	samples := make([]float64, k)
	for i := range runs {
		runs[i] = runBench(fn)
		samples[i] = runs[i].NsPerOp
	}
	med := medianIndex(samples)
	r := runs[med]
	r.NsSamples = samples
	return r
}

// medianIndex returns the index of the median sample (the lower of the two
// middle samples for even counts, so the reported run is always one that
// actually happened).
func medianIndex(samples []float64) int {
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return samples[order[a]] < samples[order[b]] })
	return order[(len(order)-1)/2]
}

func benchWorldStep(n int) func(b *testing.B) {
	return func(b *testing.B) {
		w, err := sim.NewWorld(sim.Params{N: n, L: 100, R: 4, V: 0.3, Seed: 1}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Step()
		}
	}
}

// benchMobilityAdvance measures the raw SoA mobility advance — n MRWP
// agents through Population.StepRange with no index or classify work:
// the pure kinematics cost the world step builds on.
func benchMobilityAdvance(n int) func(b *testing.B) {
	return func(b *testing.B) {
		model, err := mobility.NewMRWP(mobility.Config{L: 100, V: 0.3})
		if err != nil {
			b.Fatal(err)
		}
		pop := mobility.BulkStepper(model).NewPopulation(n)
		pop.Bind(mobility.View{X: make([]float64, n), Y: make([]float64, n)})
		for i := 0; i < n; i++ {
			pop.InitAgent(i, rand.New(rand.NewPCG(1, uint64(i))))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pop.StepRange(0, n)
		}
	}
}

func benchFloodStep(n int, chaining bool) func(b *testing.B) {
	return func(b *testing.B) {
		l := math.Sqrt(float64(n))
		newFlood := func(seed uint64) *core.Flooding {
			w, err := sim.NewWorld(sim.Params{N: n, L: l, R: 4, V: 0.3, Seed: seed}, nil)
			if err != nil {
				b.Fatal(err)
			}
			var opts []core.FloodOption
			if chaining {
				opts = append(opts, core.WithinStepChaining(true))
			}
			f, err := core.NewFlooding(w, w.NearestAgent(geom.Pt(l/2, l/2)), opts...)
			if err != nil {
				b.Fatal(err)
			}
			return f
		}
		seed := uint64(1)
		f := newFlood(seed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if f.Done() {
				b.StopTimer()
				seed++
				f = newFlood(seed)
				b.StartTimer()
			}
			f.Step()
		}
	}
}

// scaleWorkers is the fixed goroutine budget of every scale_ entry, so
// flat-vs-tiled differences measure the tiled data layout and the
// whole-tile frontier skips, not a different degree of parallelism. It
// is 1 because the committed baselines come from a single-core box,
// where extra workers only add scheduling noise; on a multi-core box,
// raise it and re-record (the per-tile passes parallelize).
const scaleWorkers = 1

// benchWorldStepScale measures a world step at population scale, flat
// (tiles = 0) or tiled. V/R = 0.075 keeps the index on the counting-sort
// path — the regime where the flat sort's scattered writes fall out of
// cache and the tiled two-level sort's per-tile working set stays
// resident. (On the current reference box the entire working set fits
// in the 260MB L3 and these entries tie; they are in the series to
// catch regressions and to show the crossover on smaller-cache
// hardware.)
func benchWorldStepScale(n, tiles, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		l := math.Sqrt(float64(n))
		w, err := sim.NewWorld(sim.Params{N: n, L: l, R: 4, V: 0.3, Seed: 1,
			Workers: workers, Tiles: tiles}, nil)
		if err != nil {
			b.Fatal(err)
		}
		w.Step() // warm every scratch buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Step()
		}
	}
}

// scaleFloodBudget caps one flood op of the scale series. At L = 2*sqrt(n)
// the frontier needs ~L/(2R)*sqrt(2) rounds to the corners plus a
// straggler tail, so 512 rounds covers essentially the whole flood at
// both populations while bounding the op against mobility-limited tails.
const scaleFloodBudget = 512

// benchFloodScale measures one whole flood (budgeted at scaleFloodBudget
// rounds) at population scale in the paper's sparse regime: L = 2*sqrt(n)
// (~4 agents per bucket — near the connectivity threshold, where flooding
// time is actually interesting) and slow mobility V = 0.1. This is the
// regime where the tiled sweep's whole-tile skips pay: early rounds skip
// the tiles ahead of the frontier wholesale, late rounds skip the
// saturated interior, while the flat sweep's fixed O(buckets) pass —
// with n/4 buckets, comparable to the O(n) mobility terms — runs every
// round. The world re-seeds outside the timer, so the op is the flood
// itself (sweeps + world steps), not the setup. Every op replays the
// same seed: per-seed flooding variance at this density is larger than
// the tiled-vs-flat effect, so flat and tiled configs must flood the
// exact same trajectory to be comparable.
func benchFloodScale(n, tiles, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		l := 2 * math.Sqrt(float64(n))
		w, err := sim.NewWorld(sim.Params{N: n, L: l, R: 4, V: 0.1, Seed: 1,
			Workers: workers, Tiles: tiles}, nil)
		if err != nil {
			b.Fatal(err)
		}
		f, err := core.NewFlooding(w, w.NearestAgent(geom.Pt(l/2, l/2)))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w.Reset(1)
			if err := f.Reset(f.Source()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for s := 0; s < scaleFloodBudget && !f.Done(); s++ {
				f.Step()
			}
		}
	}
}

// benchClassify measures the batched position→bucket classify
// (kernel.Buckets behind Index.ClassifyInto): the vectorized float→int32
// conversion that feeds the world's fused advance→classify pass.
func benchClassify(n int) func(b *testing.B) {
	return func(b *testing.B) {
		l := math.Sqrt(float64(n))
		rng := rand.New(rand.NewPCG(uint64(n), 0xc1a55))
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = rng.Float64()*l, rng.Float64()*l
		}
		ix, err := spatialindex.New(l, 4)
		if err != nil {
			b.Fatal(err)
		}
		cells := make([]int32, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.ClassifyInto(cells, xs, ys)
		}
	}
}

func benchIndexRebuild(n int) func(b *testing.B) {
	return func(b *testing.B) {
		const l, r = 100.0, 4.0
		pts := benchPoints(n, l, 1)
		ix, err := spatialindex.New(l, r)
		if err != nil {
			b.Fatal(err)
		}
		ix.Rebuild(pts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Rebuild(pts)
		}
	}
}

// benchIndexUpdate measures the delta-update path against real mobility
// kinematics: two consecutive position frames of an MRWP world at the
// E03-default velocity (v=0.1, R=4 — about a 2.5% bucket-mover fraction
// per step) are replayed through Index.Update in ping-pong order, so every
// transition is exactly one mobility step's displacement and the frames
// stay cache-resident, as the simulator's single live coordinate array
// does. This is the workload World.Step runs on the slow-agent sweeps
// (E03/E04/E11); compare with index_rebuild_10k for the full counting
// sort it replaces there.
func benchIndexUpdate(n int) func(b *testing.B) {
	return func(b *testing.B) {
		const l, r = 100.0, 4.0
		w, err := sim.NewWorld(sim.Params{N: n, L: l, R: r, V: 0.1, Seed: 7}, nil)
		if err != nil {
			b.Fatal(err)
		}
		ax := append([]float64(nil), w.X()...)
		ay := append([]float64(nil), w.Y()...)
		w.Step()
		bx := append([]float64(nil), w.X()...)
		by := append([]float64(nil), w.Y()...)
		ix, err := spatialindex.New(l, r)
		if err != nil {
			b.Fatal(err)
		}
		ix.RebuildXY(ax, ay)
		ix.Update(bx, by, nil)
		ix.Update(ax, ay, nil) // warm the delta scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				ix.Update(bx, by, nil)
			} else {
				ix.Update(ax, ay, nil)
			}
		}
	}
}

func benchIndexNeighbors(n int) func(b *testing.B) {
	return func(b *testing.B) {
		const l, r = 100.0, 4.0
		pts := benchPoints(n, l, 1)
		ix, err := spatialindex.New(l, r)
		if err != nil {
			b.Fatal(err)
		}
		ix.Rebuild(pts)
		dst := make([]int, 0, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := i % n
			dst = ix.Neighbors(pts[q], q, dst[:0])
		}
	}
}

func benchFullFlood(n int) func(b *testing.B) {
	return func(b *testing.B) {
		l := math.Sqrt(float64(n))
		for i := 0; i < b.N; i++ {
			w, err := sim.NewWorld(sim.Params{N: n, L: l, R: 5, V: 0.4, Seed: uint64(i) + 1}, nil)
			if err != nil {
				b.Fatal(err)
			}
			f, err := core.NewFlooding(w, w.NearestAgent(geom.Pt(l/2, l/2)))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.Run(100000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSweepTrials measures Monte-Carlo trial throughput at the E03 quick
// point (n=800, L=sqrt(n), the sweep's largest radius R=16, v=0.1, central
// source, 8 trials per op) through the production floodTrials fan-out.
// pooled=true is the shipped path (one world+flood per worker, Reset
// between trials); pooled=false constructs fresh pairs per trial — the
// pair of entries records the throughput gain of pooling.
func benchSweepTrials(pooled bool) func(b *testing.B) {
	return func(b *testing.B) {
		const trials = 8
		for i := 0; i < b.N; i++ {
			completed, err := experiments.SweepTrials(800, trials, 20000, 16, uint64(i)+1, pooled)
			if err != nil {
				b.Fatal(err)
			}
			if completed == 0 {
				b.Fatal("no trial completed")
			}
		}
	}
}

// benchKGossipStep measures one push-gossip round (fan-out 2) in the
// steady state — the duplicate-filter bitmap discipline is what keeps it
// allocation-free.
func benchKGossipStep(n int) func(b *testing.B) {
	return func(b *testing.B) {
		l := math.Sqrt(float64(n))
		newGossip := func(seed uint64) *core.KGossip {
			w, err := sim.NewWorld(sim.Params{N: n, L: l, R: 4, V: 0.3, Seed: seed}, nil)
			if err != nil {
				b.Fatal(err)
			}
			g, err := core.NewKGossip(w, w.NearestAgent(geom.Pt(l/2, l/2)), 2, seed)
			if err != nil {
				b.Fatal(err)
			}
			return g
		}
		seed := uint64(1)
		g := newGossip(seed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if g.Done() {
				b.StopTimer()
				seed++
				g = newGossip(seed)
				b.StartTimer()
			}
			g.Step()
		}
	}
}

// benchKernelSpan measures the raw batched radius kernel on a span the
// size of a typical CSR row, on whichever implementation the host
// selected (see the report's kernel_path).
func benchKernelSpan(n int) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewPCG(uint64(n), 0xca5e))
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = rng.Float64()*20, rng.Float64()*20
		}
		dst := make([]uint64, kernel.Words(n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kernel.Mask(dst, xs, ys, 10, 10, 4)
		}
	}
}

// newTraceWriteOp builds a steady-state trace WriteStep op at population
// scale: two consecutive world frames are replayed in ping-pong order (as
// in benchIndexUpdate), so every op encodes one real mobility step's worth
// of position deltas, plus a representative flooding block (a one-third
// informed bitmap era with a few hundred newly-informed ids per step).
// The io.Discard sink isolates encoding cost from the filesystem.
func newTraceWriteOp(n int) (op func() error, err error) {
	l := math.Sqrt(float64(n))
	w, err := sim.NewWorld(sim.Params{N: n, L: l, R: 4, V: 0.3, Seed: 1}, nil)
	if err != nil {
		return nil, err
	}
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
		return nil, err
	}
	step := 0
	return func() error {
		step++
		if step%2 == 0 {
			return wr.WriteStep(step, ax, ay, informed, newly)
		}
		return wr.WriteStep(step, bx, by, informed, newly)
	}, nil
}

// benchTraceWrite measures the columnar trace writer's per-step cost in
// isolation at population scale — the budget the <10% recording-overhead
// target is judged against (compare with scale_world_step_100k_flat /
// scale_flood_100k_flat for the uninstrumented step).
func benchTraceWrite(n int) func(b *testing.B) {
	return func(b *testing.B) {
		op, err := newTraceWriteOp(n)
		if err != nil {
			b.Fatal(err)
		}
		if err := op(); err != nil { // warm: keyframe + buffer growth
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchWorldStepTraced is world_step_10k with a trace recorder attached
// through the production step hook: the gap to world_step_10k is the
// whole-stack recording overhead on the world-only path.
func benchWorldStepTraced(n int) func(b *testing.B) {
	return func(b *testing.B) {
		w, err := sim.NewWorld(sim.Params{N: n, L: 100, R: 4, V: 0.3, Seed: 1}, nil)
		if err != nil {
			b.Fatal(err)
		}
		wr, err := tracev2.NewWriter(io.Discard, tracev2.RunInfo{
			N: n, L: 100, R: 4, V: 0.3, Seed: 1, Model: "mrwp",
		})
		if err != nil {
			b.Fatal(err)
		}
		var hookErr error
		w.SetStepHook(func() {
			if err := wr.WriteStep(w.Time(), w.X(), w.Y(), nil, nil); err != nil {
				hookErr = err
			}
		})
		w.Step() // warm: keyframe + buffer growth
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Step()
		}
		b.StopTimer()
		if hookErr != nil {
			b.Fatal(hookErr)
		}
	}
}

// benchFloodStepTraced is flood_step_4k plus the per-step recording work
// the run loop performs with an observer attached (Step, then one
// WriteStep with the informed column and the step's fresh ids): the gap
// to flood_step_4k is the recording overhead on the flooding path.
func benchFloodStepTraced(n int) func(b *testing.B) {
	return func(b *testing.B) {
		l := math.Sqrt(float64(n))
		// One writer across flood restarts: a restart's step discontinuity
		// forces a keyframe (same cost as the steady-state keyframe
		// cadence) without re-growing the assembly buffer inside the
		// measured region.
		wr, err := tracev2.NewWriter(io.Discard, tracev2.RunInfo{
			N: n, L: l, R: 4, V: 0.3, Seed: 1, Model: "mrwp",
		})
		if err != nil {
			b.Fatal(err)
		}
		newFlood := func(seed uint64) (*core.Flooding, *sim.World) {
			w, err := sim.NewWorld(sim.Params{N: n, L: l, R: 4, V: 0.3, Seed: seed}, nil)
			if err != nil {
				b.Fatal(err)
			}
			f, err := core.NewFlooding(w, w.NearestAgent(geom.Pt(l/2, l/2)))
			if err != nil {
				b.Fatal(err)
			}
			return f, w
		}
		seed := uint64(1)
		f, w := newFlood(seed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if f.Done() {
				b.StopTimer()
				seed++
				f, w = newFlood(seed)
				b.StartTimer()
			}
			f.Step()
			if err := wr.WriteStep(w.Time(), w.X(), w.Y(), f.Informed(), f.LastStepNewlyInformed()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// allocCheck is one hot loop of the -allocs gate: warm the scratch
// buffers, then require zero allocations per op in the steady state.
type allocCheck struct {
	name string
	// setup builds the subject and returns (warm, op): warm is run
	// uncounted to let every reusable buffer reach capacity, op is the
	// measured operation.
	setup func() (func(), func(), error)
	// warmups is how many uncounted runs precede the measurement.
	warmups int
}

// runAllocGate measures every hot loop with testing.AllocsPerRun and
// reports loops that allocate; the measurement is exact (allocation
// counts, not timings), so the gate passes or fails identically on any
// hardware.
func runAllocGate(w io.Writer) int {
	checks := []allocCheck{
		{name: "world_step_10k", warmups: 30, setup: func() (func(), func(), error) {
			world, err := sim.NewWorld(sim.Params{N: 10000, L: 100, R: 4, V: 0.3, Seed: 1}, nil)
			if err != nil {
				return nil, nil, err
			}
			return world.Step, world.Step, nil
		}},
		{name: "world_step_10k_t4", warmups: 30, setup: func() (func(), func(), error) {
			world, err := sim.NewWorld(sim.Params{N: 10000, L: 100, R: 4, V: 0.3, Seed: 1, Tiles: 4}, nil)
			if err != nil {
				return nil, nil, err
			}
			return world.Step, world.Step, nil
		}},
		// The tiled delta path the 100k sparse-flood workload runs: at
		// V/R = 0.025 the world syncs through UpdateCells, sharded over
		// two workers (world_step_10k_t4 at V/R = 0.075 takes the rebuild).
		{name: "world_step_10k_t4_delta", warmups: 30, setup: func() (func(), func(), error) {
			world, err := sim.NewWorld(sim.Params{N: 10000, L: 100, R: 4, V: 0.1, Seed: 1, Tiles: 4, Workers: 2}, nil)
			if err != nil {
				return nil, nil, err
			}
			return world.Step, world.Step, nil
		}},
		{name: "flood_step_4k", warmups: 40, setup: func() (func(), func(), error) {
			return newAllocFlood(4000, false, 0)
		}},
		{name: "flood_step_4k_chained", warmups: 40, setup: func() (func(), func(), error) {
			return newAllocFlood(4000, true, 0)
		}},
		{name: "flood_step_4k_t4", warmups: 40, setup: func() (func(), func(), error) {
			return newAllocFlood(4000, false, 4)
		}},
		// A world that can rest: PausedMRWP at V/R = 0.025, so every step
		// syncs the index through the dirty-bitmap Update and then sweeps.
		{name: "flood_step_4k_paused", warmups: 40, setup: func() (func(), func(), error) {
			return newAllocFloodWith(sim.Params{N: 4000, R: 4, V: 0.1, Seed: 1}, sim.PausedMRWPFactory(20), false)
		}},
		{name: "kgossip_step_4k", warmups: 40, setup: func() (func(), func(), error) {
			l := math.Sqrt(4000.0)
			world, err := sim.NewWorld(sim.Params{N: 4000, L: l, R: 4, V: 0.3, Seed: 1}, nil)
			if err != nil {
				return nil, nil, err
			}
			g, err := core.NewKGossip(world, world.NearestAgent(geom.Pt(l/2, l/2)), 2, 99)
			if err != nil {
				return nil, nil, err
			}
			op := func() {
				if !g.Done() {
					g.Step()
				}
			}
			return op, op, nil
		}},
		{name: "trace_write_100k", warmups: 3, setup: func() (func(), func(), error) {
			op, err := newTraceWriteOp(100000)
			if err != nil {
				return nil, nil, err
			}
			wrapped := func() {
				if err := op(); err != nil {
					panic(err)
				}
			}
			return wrapped, wrapped, nil
		}},
		{name: "index_update_10k", warmups: 8, setup: func() (func(), func(), error) {
			const l, r = 100.0, 4.0
			world, err := sim.NewWorld(sim.Params{N: 10000, L: l, R: r, V: 0.1, Seed: 7}, nil)
			if err != nil {
				return nil, nil, err
			}
			ax := append([]float64(nil), world.X()...)
			ay := append([]float64(nil), world.Y()...)
			world.Step()
			bx := append([]float64(nil), world.X()...)
			by := append([]float64(nil), world.Y()...)
			ix, err := spatialindex.New(l, r)
			if err != nil {
				return nil, nil, err
			}
			ix.RebuildXY(ax, ay)
			flip := false
			op := func() {
				if flip {
					ix.Update(ax, ay, nil)
				} else {
					ix.Update(bx, by, nil)
				}
				flip = !flip
			}
			return op, op, nil
		}},
	}
	failures := 0
	for _, c := range checks {
		warm, op, err := c.setup()
		if err != nil {
			fmt.Fprintf(w, "allocs %-24s ERROR: %v\n", c.name, err)
			failures++
			continue
		}
		for i := 0; i < c.warmups; i++ {
			warm()
		}
		avg := testing.AllocsPerRun(20, op)
		verdict := "ok"
		if avg > 0 {
			verdict = "ALLOCATES"
			failures++
		}
		fmt.Fprintf(w, "allocs %-24s %8.2f allocs/op  %s\n", c.name, avg, verdict)
	}
	return failures
}

// newAllocFlood builds a steady-state flood step op for the alloc gate.
func newAllocFlood(n int, chained bool, tiles int) (func(), func(), error) {
	return newAllocFloodWith(sim.Params{N: n, R: 4, V: 0.3, Seed: 1, Tiles: tiles}, nil, chained)
}

// newAllocFloodWith builds a flood step op over p (L set to sqrt(N), unit
// density) from the central source. A completed flood restarts from the
// reset world and the same source, so every measured op runs a real step
// however few steps the flood takes.
func newAllocFloodWith(p sim.Params, factory sim.ModelFactory, chained bool) (func(), func(), error) {
	p.L = math.Sqrt(float64(p.N))
	world, err := sim.NewWorld(p, factory)
	if err != nil {
		return nil, nil, err
	}
	var opts []core.FloodOption
	if chained {
		opts = append(opts, core.WithinStepChaining(true))
	}
	src := world.NearestAgent(geom.Pt(p.L/2, p.L/2))
	f, err := core.NewFlooding(world, src, opts...)
	if err != nil {
		return nil, nil, err
	}
	op := func() {
		if f.Done() {
			world.Reset(p.Seed)
			if err := f.Reset(src); err != nil {
				panic(err)
			}
		}
		f.Step()
	}
	return op, op, nil
}

func benchPoints(n int, l float64, seed uint64) []geom.Point {
	rng := rand.New(rand.NewPCG(seed, 0xbe7c4))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*l, rng.Float64()*l)
	}
	return pts
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
