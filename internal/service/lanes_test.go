package service

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/experiments"
)

// An r sweep wider than the lane cap and than the commit queue bound of
// one worker completes on one worker, byte-identically to RunSweep: its
// units are chunks of at most experiments.MaxLanes radii, and a unit
// wider than the queue bound enters the queue whole instead of waiting
// for room it can never get.
func TestWideRSweepOnOneWorker(t *testing.T) {
	spec := testSpec()
	spec.Values = []float64{3, 3.5, 4, 4.5, 5, 5.5, 6, 6.5, 7, 8}
	spec.Trials = 3
	if len(spec.Values) <= experiments.MaxLanes || experiments.MaxLanes <= commitQueuePerWorker {
		t.Fatalf("the sweep must be wider than the lane cap (%d), itself wider than the queue bound (%d)",
			experiments.MaxLanes, commitQueuePerWorker)
	}
	s := newScheduler(t, Config{Workers: 1, StateDir: t.TempDir()})
	v, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fv := waitState(t, s, v.ID)
	if fv.State != StateCompleted || fv.CellsDone != len(spec.Values)*spec.Trials {
		t.Fatalf("wide sweep: %+v, want completed with every cell", fv)
	}
	got, _ := s.Result(v.ID)
	if g, w := tsv(t, got), tsv(t, directResult(t, spec)); g != w {
		t.Fatalf("wide sweep TSV differs from RunSweep:\n%s\nvs\n%s", g, w)
	}
}

// A crash between the two lines of one commit batch leaves a trial with
// point 0 journaled and point 1 not. The restarted service must flood
// only the missing lane of that trial: it appends exactly one line, and
// the TSV equals RunSweep's.
func TestPartialTrialResume(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.normalize()
	sw := spec.sweep()
	full := checkpoint.New()
	if _, err := experiments.RunSweep(experiments.Config{Workers: 1, Journal: full}, sw); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"jobs", "journals"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeJobRecord(dir, spec.ID(), spec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journals", spec.ID()+".ckpt")
	j, err := checkpoint.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	const missing = 2 // the trial whose point 1 never reached the disk
	for _, e := range full.Entries() {
		if e.Point == 1 && e.Trial == missing {
			continue
		}
		if err := j.RecordDurable(e.Unit, e.Result); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s := newScheduler(t, Config{Workers: 1, StateDir: dir})
	fv := waitState(t, s, spec.ID())
	if fv.State != StateCompleted || fv.CellsDone != sw.Cells() {
		t.Fatalf("resumed job: %+v, want completed with every cell", fv)
	}
	got, _ := s.Result(spec.ID())
	if g, w := tsv(t, got), tsv(t, directResult(t, spec)); g != w {
		t.Fatalf("resumed TSV differs from RunSweep:\n%s\nvs\n%s", g, w)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The header plus one line per cell: the journaled lane was not
	// flooded and appended again.
	if lines := strings.Count(string(blob), "\n"); lines != 1+sw.Cells() {
		t.Fatalf("journal holds %d lines after the resume, want %d", lines, 1+sw.Cells())
	}
	onDisk, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := full.Lookup(sw.Unit(1, missing))
	if rec, ok := onDisk.Lookup(sw.Unit(1, missing)); !ok || !reflect.DeepEqual(rec, want) {
		t.Fatalf("missing cell after the resume: %+v (found %t), want %+v", rec, ok, want)
	}
}

// A completed job lets go of its journal: with retention off, the open
// file descriptors return to their count before the jobs ran, so a
// long-lived daemon does not run into the descriptor limit one finished
// job at a time.
func TestCompletedJobsCloseTheirJournals(t *testing.T) {
	openFDs := fdCounter(t)
	s := newScheduler(t, Config{Workers: 2, StateDir: t.TempDir()})
	base := openFDs()
	const jobs = 24
	for k := 0; k < jobs; k++ {
		spec := testSpec()
		spec.Seed = uint64(900 + k)
		spec.Trials = 1
		v, _, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fv := waitState(t, s, v.ID); fv.State != StateCompleted {
			t.Fatalf("job %d: %+v", k, fv)
		}
		if _, ok := s.Result(v.ID); !ok {
			t.Fatalf("job %d: completed without a result", k)
		}
	}
	waitFDs(t, openFDs, base, fmt.Sprintf("%d completed jobs", jobs))
	if got := len(s.List()); got != jobs {
		t.Fatalf("%d jobs in the table, want all %d (retention is off)", got, jobs)
	}
}

// Canceled jobs release their journals too, but only once the unit a
// worker was running for them has finished and its cells are journaled:
// a journal released sooner would fail that append and mark the job's
// journal degraded.
func TestCanceledJobsCloseTheirJournals(t *testing.T) {
	openFDs := fdCounter(t)
	s := newScheduler(t, Config{Workers: 1, StateDir: t.TempDir()})
	base := openFDs()
	const jobs = 20
	for k := 0; k < jobs; k++ {
		spec := testSpec()
		spec.Seed = uint64(950 + k)
		v, _, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Let the worker pick up a unit of every other job first.
		for k%2 == 0 {
			if cv, _ := s.Get(v.ID); cv.State != StateQueued {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if cv, ok := s.Cancel(v.ID); !ok || !cv.State.terminal() {
			t.Fatalf("job %d: cancel left %+v", k, cv)
		}
	}
	waitFDs(t, openFDs, base, fmt.Sprintf("%d canceled jobs", jobs))
	for _, v := range s.List() {
		if v.JournalDegraded {
			t.Fatalf("job %s: journal degraded: released before its in-flight cells were journaled", v.ID)
		}
	}
}

// fdCounter returns a function counting this process's open file
// descriptors, skipping the test where /proc/self/fd is missing.
func fdCounter(t *testing.T) func() int {
	t.Helper()
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count open files")
	}
	return func() int {
		des, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(des) - 1 // ReadDir's own descriptor
	}
}

// waitFDs fails unless the open descriptor count falls back to base. The
// committer releases a terminal job's journal just after the job turns
// terminal; give the last one a moment.
func waitFDs(t *testing.T, openFDs func() int, base int, after string) {
	t.Helper()
	n := openFDs()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = openFDs() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d open descriptors after %s, %d before", n, after, base)
	}
}
