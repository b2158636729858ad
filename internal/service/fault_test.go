//go:build faultinject

// Service-layer fault-injection suite (the `make test-service` fault
// leg): the JobDispatch hook stalls or panics on the scheduler's dispatch
// path and the JournalCommit hook fails or stalls the committer, and the
// robustness contract is asserted — the watchdog fails exactly the
// stalled job and replaces the wedged worker, a poisoned job fails alone
// while sibling tenants' sweeps complete unaffected, a failed commit
// degrades exactly its own job's journal, and a stalled commit holds the
// workers back without counting cells that are not on disk.
package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/faultinject"
)

// TestWatchdogFailsStalledJobOnly: a trial wedged past StallTimeout fails
// its own job with a watchdog error naming the cell; the sibling job
// completes with correct results, and the pool still has capacity
// afterwards (the abandoned worker was replaced).
func TestWatchdogFailsStalledJobOnly(t *testing.T) {
	defer faultinject.Reset()
	stalled := testSpec()
	stalled.Seed = 21
	stalled.Tenant = "stuck"
	sibling := testSpec()
	sibling.Seed = 22
	sibling.Tenant = "fine"

	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	faultinject.SetJobDispatch(func(jobID string, point, trial int) {
		if jobID == stalled.ID() {
			// Wedge this worker until the test ends; only the watchdog
			// can get the job unstuck.
			<-release
		}
	})

	s := newScheduler(t, Config{Workers: 2, StallTimeout: 100 * time.Millisecond})
	vs, _, err := s.Submit(stalled)
	if err != nil {
		t.Fatal(err)
	}
	vf, _, err := s.Submit(sibling)
	if err != nil {
		t.Fatal(err)
	}

	fs := waitState(t, s, vs.ID)
	if fs.State != StateFailed || !strings.Contains(fs.Error, "watchdog") || !strings.Contains(fs.Error, "stalled") {
		t.Fatalf("stalled job: state=%s err=%q, want watchdog failure", fs.State, fs.Error)
	}
	if ff := waitState(t, s, vf.ID); ff.State != StateCompleted {
		t.Fatalf("sibling: state=%s err=%q, want completed", ff.State, ff.Error)
	}
	want := directResult(t, sibling)
	if got, _ := s.Result(vf.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("sibling result corrupted by the stall")
	}

	// Replacement workers keep the pool at size: new work still runs even
	// though the original workers may all be wedged on the stalled job's
	// first cells.
	later := testSpec()
	later.Seed = 23
	vl, _, err := s.Submit(later)
	if err != nil {
		t.Fatal(err)
	}
	if fl := waitState(t, s, vl.ID); fl.State != StateCompleted {
		t.Fatalf("post-stall job: state=%s err=%q, want completed", fl.State, fl.Error)
	}
}

// TestPanicPoisonsOnlyItsJob: an injected panic on the dispatch path
// fails that job with a diagnosable error carrying the cell coordinates;
// sibling jobs from other tenants complete byte-identically to a clean
// run, and the scheduler keeps serving.
func TestPanicPoisonsOnlyItsJob(t *testing.T) {
	defer faultinject.Reset()
	poisoned := testSpec()
	poisoned.Seed = 31
	poisoned.Tenant = "bad"
	sibling := testSpec()
	sibling.Seed = 32
	sibling.Tenant = "good"

	faultinject.SetJobDispatch(func(jobID string, point, trial int) {
		if jobID == poisoned.ID() && point == 1 && trial == 2 {
			panic("injected dispatch fault")
		}
	})

	s := newScheduler(t, Config{Workers: 2})
	vp, _, err := s.Submit(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	vg, _, err := s.Submit(sibling)
	if err != nil {
		t.Fatal(err)
	}

	fp := waitState(t, s, vp.ID)
	if fp.State != StateFailed ||
		!strings.Contains(fp.Error, "injected dispatch fault") ||
		!strings.Contains(fp.Error, "point=1") || !strings.Contains(fp.Error, "trial=2") {
		t.Fatalf("poisoned job: state=%s err=%q, want failure naming the cell", fp.State, fp.Error)
	}
	if fg := waitState(t, s, vg.ID); fg.State != StateCompleted {
		t.Fatalf("sibling: state=%s err=%q, want completed", fg.State, fg.Error)
	}
	faultinject.Reset()
	want := directResult(t, sibling)
	if got, _ := s.Result(vg.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("sibling result corrupted by the panic")
	}

	// The scheduler is still healthy: a clean resubmission of the same
	// compute content dedups onto the failed job (terminal), but fresh
	// work runs fine.
	fresh := testSpec()
	fresh.Seed = 33
	vf, _, err := s.Submit(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if ff := waitState(t, s, vf.ID); ff.State != StateCompleted {
		t.Fatalf("post-panic job: state=%s err=%q, want completed", ff.State, ff.Error)
	}
}

// TestFailedJobClosesItsJournal: a job poisoned by a dispatch panic
// releases its journal once its other in-flight unit (two workers) has
// been journaled, so the open descriptor count returns to where it was
// before the job was submitted.
func TestFailedJobClosesItsJournal(t *testing.T) {
	defer faultinject.Reset()
	openFDs := fdCounter(t)
	poisoned := testSpec()
	poisoned.Seed = 34
	faultinject.SetJobDispatch(func(jobID string, point, trial int) {
		if jobID == poisoned.ID() && trial == 1 {
			panic("injected dispatch fault")
		}
	})
	s := newScheduler(t, Config{Workers: 2, StateDir: t.TempDir()})
	base := openFDs()
	v, _, err := s.Submit(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if fv := waitState(t, s, v.ID); fv.State != StateFailed || fv.JournalDegraded {
		t.Fatalf("poisoned job: %+v, want failed with an intact journal", fv)
	}
	waitFDs(t, openFDs, base, "a failed job")
	if fv, _ := s.Get(v.ID); fv.JournalDegraded {
		t.Fatalf("poisoned job's journal degraded: released before its in-flight cells were journaled")
	}
}

// TestTrialPanicInsideRunnerAlsoIsolates: a panic inside the trial body
// (the experiments-layer TrialStart hook, not the dispatch hook) surfaces
// through CellRunner as a structured error and fails only that job.
func TestTrialPanicInsideRunnerAlsoIsolates(t *testing.T) {
	defer faultinject.Reset()
	poisoned := testSpec()
	poisoned.Seed = 41
	sibling := testSpec()
	sibling.Seed = 42

	faultinject.SetTrialStart(func(tr faultinject.Trial) {
		if tr.Experiment == poisoned.sweep().Experiment() && tr.Seed == trialSeedFor(poisoned, 0) {
			panic("injected trial fault")
		}
	})

	s := newScheduler(t, Config{Workers: 2})
	vp, _, err := s.Submit(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	vg, _, err := s.Submit(sibling)
	if err != nil {
		t.Fatal(err)
	}
	if fp := waitState(t, s, vp.ID); fp.State != StateFailed || !strings.Contains(fp.Error, "injected trial fault") {
		t.Fatalf("poisoned job: state=%s err=%q", fp.State, fp.Error)
	}
	if fg := waitState(t, s, vg.ID); fg.State != StateCompleted {
		t.Fatalf("sibling: state=%s err=%q", fg.State, fg.Error)
	}
}

// trialSeedFor mirrors the trial runner's per-trial seed derivation for
// hook targeting.
func trialSeedFor(spec JobSpec, trial int) uint64 {
	spec.normalize()
	return spec.sweep().Unit(0, trial).Seed
}

// TestJournalCommitFailureFailsOpen: a job whose journal commits fail
// keeps running from memory. It completes, reports journal_degraded
// through the API, and its TSV still equals RunSweep's; a sibling job
// sharing the committer's batches is not degraded.
func TestJournalCommitFailureFailsOpen(t *testing.T) {
	defer faultinject.Reset()
	degraded := testSpec()
	degraded.Seed = 51
	degraded.Tenant = "disk"
	sibling := testSpec()
	sibling.Seed = 52
	sibling.Tenant = "fine"

	faultinject.SetJournalCommit(func(jobID string) error {
		if jobID == degraded.ID() {
			return errors.New("injected fsync failure")
		}
		return nil
	})

	s := newScheduler(t, Config{Workers: 2, StateDir: t.TempDir()})
	srv := NewServer(s)
	vd, _, err := s.Submit(degraded)
	if err != nil {
		t.Fatal(err)
	}
	vs, _, err := s.Submit(sibling)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, vd.ID)
	waitState(t, s, vs.ID)

	for _, c := range []struct {
		id, name     string
		spec         JobSpec
		wantDegraded bool
	}{
		{vd.ID, "degraded job", degraded, true},
		{vs.ID, "sibling", sibling, false},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+c.id, nil))
		var view JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			t.Fatalf("%s: decoding %s: %v", c.name, rec.Body.String(), err)
		}
		if view.State != StateCompleted || view.JournalDegraded != c.wantDegraded {
			t.Fatalf("%s: state=%s journal_degraded=%v (err %q), want completed, %v",
				c.name, view.State, view.JournalDegraded, view.Error, c.wantDegraded)
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+c.id+"/result?format=tsv", nil))
		if want := tsv(t, directResult(t, c.spec)); rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("%s: result %d\n%s\nwant RunSweep's\n%s", c.name, rec.Code, rec.Body.String(), want)
		}
	}
}

// TestStalledCommitHoldsWorkersBack: while the committer is stuck on the
// disk, workers fill the bounded commit queue and then stop taking units
// (each holds the one it computed: a trial of both radii), and no cell is
// counted, since none is known to be on disk. Once the disk answers, the job completes with
// every cell journaled and RunSweep's result.
func TestStalledCommitHoldsWorkersBack(t *testing.T) {
	defer faultinject.Reset()
	spec := testSpec()
	spec.Seed = 61
	spec.Trials = 40 // 80 cells, far more than the queue holds

	var dispatched atomic.Int64
	faultinject.SetJobDispatch(func(jobID string, point, trial int) {
		if jobID == spec.ID() {
			dispatched.Add(1)
		}
	})
	release := make(chan struct{})
	faultinject.SetJournalCommit(func(string) error {
		<-release
		return nil
	})

	const workers = 2
	dir := t.TempDir()
	s := newScheduler(t, Config{Workers: workers, StateDir: dir})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before the scheduler's Close
	v, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the workers stop taking cells.
	last, stableSince := int64(-1), time.Now()
	for deadline := time.Now().Add(20 * time.Second); ; {
		if n := dispatched.Load(); n != last {
			last, stableSince = n, time.Now()
		}
		if time.Since(stableSince) > 500*time.Millisecond {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers still taking cells after 20s with the commit stalled (%d taken)", last)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The spec's two radii fill whole units of two cells into a queue
	// bound of 8 cells, so the queue stops at the bound exactly.
	unitCells := len(spec.Values)
	if want := int64(commitQueuePerWorker*workers + workers*unitCells); last != want {
		t.Fatalf("workers took %d cells with the commit stalled, want %d (the queue bound plus one unit held per worker)", last, want)
	}
	jv, _ := s.Get(v.ID)
	onDisk, err := checkpoint.Open(filepath.Join(dir, "journals", v.ID+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if jv.CellsDone != 0 || jv.CellsDone > onDisk.Len() {
		t.Fatalf("cells_done = %d with the first commit stalled (%d lines in the file), want 0", jv.CellsDone, onDisk.Len())
	}

	unblock()
	fv := waitState(t, s, v.ID)
	if fv.State != StateCompleted || fv.CellsDone != fv.CellsTotal {
		t.Fatalf("after the disk answered: %+v, want completed with every cell", fv)
	}
	if got, _ := s.Result(v.ID); !reflect.DeepEqual(got, directResult(t, spec)) {
		t.Fatal("result after a stalled commit differs from RunSweep")
	}
	if onDisk, err = checkpoint.Open(filepath.Join(dir, "journals", v.ID+".ckpt")); err != nil {
		t.Fatal(err)
	}
	if onDisk.Len() != fv.CellsTotal {
		t.Fatalf("journal holds %d entries after completion, want %d", onDisk.Len(), fv.CellsTotal)
	}
}

// TestDrainCommitsQueuedCells: with a slow disk, cells are still queued
// for the committer when Drain starts. Drain waits for them, so every
// cell a worker computed ends up on disk and counted, and the journal
// holds exactly the cells_done the job reports.
func TestDrainCommitsQueuedCells(t *testing.T) {
	defer faultinject.Reset()
	spec := testSpec()
	spec.Seed = 81
	spec.Trials = 40

	var dispatched atomic.Int64
	faultinject.SetJobDispatch(func(jobID string, point, trial int) {
		if jobID == spec.ID() {
			dispatched.Add(1)
		}
	})
	faultinject.SetJournalCommit(func(string) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})

	dir := t.TempDir()
	s := newScheduler(t, Config{Workers: 2, StateDir: dir})
	v, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); dispatched.Load() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no cells dispatched")
		}
	}
	s.Drain(10 * time.Second)
	jv, _ := s.Get(v.ID)
	onDisk, err := checkpoint.Open(filepath.Join(dir, "journals", v.ID+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if n := int(dispatched.Load()); jv.CellsDone != n || onDisk.Len() != n {
		t.Fatalf("after Drain: %d cells computed, %d counted, %d in the journal; want all equal",
			n, jv.CellsDone, onDisk.Len())
	}
}
