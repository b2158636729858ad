// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed wall-clock budget, checks every output
// it produces, and prints the workload's metrics by name and unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 17, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off). With
// -trace 1 the same workload runs again with spans recorded around the
// benchmark's calls into each module's public functions, and the metrics
// are the per-layer ones. Nothing inside the program is instrumented.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload sweep_mc_2k --seed 1 --seconds 20 --trace 0
//
// See METRICS.md for the workloads, the metrics and which layer metric is
// expected to move which end-to-end metric on which workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"manhattanflood/internal/kernel"
)

// scratchRoot holds everything a run writes, relative to the repository
// root the benchmark runs from.
const scratchRoot = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	dir      string // per-run scratch directory, removed at exit
	tr       *tracer

	attempted, failed int
	metrics           map[string]metric

	// Step-loop counters of traced runs (see stepLoop): uninformed
	// candidates and newly informed agents summed over steps, and agents
	// that changed bucket against the agent-steps observed.
	candidates, newly       int64
	movers, moverAgentSteps int64
	// extra are end-to-end figures printed for the reader but not part of
	// the JSON result (see METRICS.md for why each one is left out).
	extra []string
}

// fail counts one failed operation or correctness check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// check counts cond as one attempted check, failing it when false.
func (r *run) check(cond bool, format string, args ...any) {
	r.attempted++
	if !cond {
		r.fail(format, args...)
	}
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// deadline is the end of the measured stretch that starts now.
func (r *run) deadline() time.Time { return time.Now().Add(r.budget) }

var workloads = map[string]struct {
	plain, traced func(*run) error
}{
	"flood_sparse_100k":       {floodSparse, floodSparseTraced},
	"sweep_mc_2k":             {sweepMC, sweepMCTraced},
	"floodd_durable":          {flooddDurable, flooddDurableTraced},
	"flood_paused_traced_20k": {floodPaused, floodPausedTraced},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload to run (see METRICS.md)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured wall-clock budget of the run")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(names, "|"))
		return 2
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		metrics:  map[string]metric{},
	}
	dir, err := os.MkdirTemp(mustMkdir(filepath.Join(scratchRoot, "runs")), r.workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r.dir = dir

	prov := provenance(r.seed)
	fmt.Println("provenance\t" + prov)
	body := wl.plain
	if r.traced {
		r.tr = newTracer(time.Now())
		body = wl.traced
	}
	rss := startRSS()
	err = body(r)
	rssMB := rss.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.traced {
		file := fmt.Sprintf("%s-seed%d.spans.tsv", r.workload, r.seed)
		if err := r.tr.writeSpans(filepath.Join(scratchRoot, "spans"), file, prov); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		r.note("spans\t%s (%d spans)", filepath.Join(scratchRoot, "spans", file), len(r.tr.spans))
	} else {
		r.set("rss_peak_mb", quantile(rssMB, rssPeakQuantile), "MB")
		r.note("rss_hwm_mb\t%.6g\tMB\t(VmHWM; %d VmRSS samples, every %s)", procStatusMB("VmHWM:"), len(rssMB), rssInterval)
	}
	if r.attempted < 1 {
		r.fail("nothing was attempted")
		r.attempted = 1
	}
	r.note("failed_frac\t%g\t(%d failed of %d attempted)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	return r.print()
}

// print writes the human-readable lines, then the JSON result line.
func (r *run) print() int {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Printf("%s\t%.6g\t%s\n", name, m.Value, m.Unit)
	}
	for _, line := range r.extra {
		fmt.Println(line)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	return dir
}

// provenance names the host and build that produced the numbers, so
// figures from different CPUs or kernel paths are never compared.
func provenance(seed uint64) string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d kernel_path=%s go=%s seed=%d",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel.Path(), runtime.Version(), seed)
}

// rssInterval is how often a run samples its resident set. The peak it
// reports is a high quantile of the samples, not VmHWM: on the workloads
// whose Go heap is a few MB, the high-water mark is set by whichever
// garbage-collection cycle happens to peak highest, and moves by a third
// between runs of the same code.
const (
	rssInterval     = 10 * time.Millisecond
	rssPeakQuantile = 0.9
)

// rssSampler samples VmRSS, in MiB, every rssInterval until finished.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64)}
	go func() {
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		var mb []float64
		for {
			if v := procStatusMB("VmRSS:"); v > 0 {
				mb = append(mb, v)
			}
			select {
			case <-s.stop:
				s.done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it to end and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	return <-s.done
}

// procStatusMB reads one kB field of /proc/self/status (VmRSS:, VmHWM:)
// in MiB, or 0 if it cannot.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// durQuantile is quantile over durations, in seconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, q)
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
