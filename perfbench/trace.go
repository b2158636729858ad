package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call made by the benchmark into a module's public
// function (or one stretch of the benchmark's own work, named "bench.*").
// Times are nanoseconds since the tracer's epoch.
type span struct {
	name       string
	start, end int64
	parent     int32 // index into the owning tracer's spans, -1 for a root
}

// tracer records spans in memory for one goroutine. A nil tracer records
// nothing, so the untraced paths share code with the traced ones at the
// cost of one branch per call.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// add records an already-measured span (start and end stamped by the
// caller, e.g. from a step hook) as a child of the innermost open span.
func (t *tracer) add(name string, start, end int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent})
}

// merge appends other's spans, re-basing their parent links.
func (t *tracer) merge(other *tracer) {
	base := int32(len(t.spans))
	for _, s := range other.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int
	total int64 // Σ duration
	self  int64 // Σ duration minus the part covered by direct children
	durs  []int64
}

// layerStats maps span names to their aggregates.
type layerStats map[string]*layerStat

func (st layerStats) get(name string) *layerStat {
	if s := st[name]; s != nil {
		return s
	}
	return &layerStat{}
}

func (st layerStats) total(name string) int64 { return st.get(name).total }
func (st layerStats) self(name string) int64  { return st.get(name).self }
func (st layerStats) count(name string) int   { return st.get(name).count }

// mean is the mean duration of the named spans, 0 when there are none.
func (st layerStats) mean(name string) float64 {
	s := st.get(name)
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count)
}

// stats folds the spans into per-name totals and self times. Children of
// one span never overlap (one goroutine per tracer), so a span's self
// time is its duration minus its children's durations.
func (t *tracer) stats() layerStats {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	out := layerStats{}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.count++
		st.total += d
		st.self += d - childSum[i]
		st.durs = append(st.durs, d)
	}
	return out
}

// benchTime returns, for every span, the time its bench.* descendants
// cover — the twin, the guard and other benchmark-only work that the
// program itself never does. A span's program time is its duration minus
// this.
func (t *tracer) benchTime() []int64 {
	bt := make([]int64, len(t.spans))
	// Spans are appended in start order, so children follow parents:
	// walking backwards propagates each subtree before its parent reads it.
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := t.spans[i]
		if s.parent < 0 {
			continue
		}
		if strings.HasPrefix(s.name, "bench.") {
			bt[s.parent] += s.end - s.start
		} else {
			bt[s.parent] += bt[i]
		}
	}
	return bt
}

// programDurs returns the program time (duration minus bench.* descendant
// time) of every span with the given name.
func (t *tracer) programDurs(name string) []int64 {
	bt := t.benchTime()
	var out []int64
	for i, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start-bt[i])
		}
	}
	return out
}

// layerSelf sums the self time of every span that belongs to a layer,
// i.e. every span not owned by the benchmark itself.
func layerSelf(st layerStats) int64 {
	var sum int64
	for name, s := range st {
		if !strings.HasPrefix(name, "bench.") {
			sum += s.self
		}
	}
	return sum
}

// writeSpans writes the spans as TSV under dir, one line per span, after
// a header carrying the run's provenance.
func (t *tracer) writeSpans(dir, file, provenance string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating span dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# id\tparent\tname\tstart_ns\tend_ns\tself_ns\n", provenance)
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.name, s.start, s.end, s.end-s.start-childSum[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the inclusive method). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// nsQuantile is quantile over nanosecond durations.
func nsQuantile(ds []int64, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return quantile(xs, q)
}

func sumNS(ds []int64) int64 {
	var s int64
	for _, d := range ds {
		s += d
	}
	return s
}
