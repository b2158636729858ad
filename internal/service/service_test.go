package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"manhattanflood/internal/experiments"
)

// testSpec is small enough to complete in well under a second per job but
// still spans multiple points and trials.
func testSpec() JobSpec {
	return JobSpec{
		Param: "r", Values: []float64{3, 5}, N: 400, R: 5, V: 0.3,
		Trials: 4, MaxSteps: 20000, Seed: 7, Source: "center",
	}
}

// heavySpec takes long enough (seconds, like the cmd/sweep e2e workload)
// that a job submitted right after it is reliably still queued or
// running when the next request lands.
func heavySpec() JobSpec {
	s := testSpec()
	s.N = 30000
	s.Trials = 8
	s.MaxSteps = 60000
	s.Seed = 11
	return s
}

func newScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, s *Scheduler, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if v.State.terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := s.Get(id)
	t.Fatalf("job %s did not finish: %+v", id, v)
	return JobView{}
}

// directResult runs the same sweep in-process; service results must be
// byte-identical to it.
func directResult(t *testing.T, spec JobSpec) experiments.SweepResult {
	t.Helper()
	spec.normalize()
	res, err := experiments.RunSweep(experiments.Config{Workers: 2}, spec.sweep())
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	return res
}

func tsv(t *testing.T, res experiments.SweepResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSubmitCompletesIdentically: a submitted job runs to completion and
// its result is byte-identical to the in-process sweep runner.
func TestSubmitCompletesIdentically(t *testing.T) {
	s := newScheduler(t, Config{Workers: 2})
	spec := testSpec()
	view, dup, err := s.Submit(spec)
	if err != nil || dup {
		t.Fatalf("Submit: view=%+v dup=%v err=%v", view, dup, err)
	}
	final := waitState(t, s, view.ID)
	if final.State != StateCompleted {
		t.Fatalf("state = %s (err %q), want completed", final.State, final.Error)
	}
	if final.CellsDone != final.CellsTotal || final.CellsTotal != 8 {
		t.Fatalf("cells = %d/%d, want 8/8", final.CellsDone, final.CellsTotal)
	}
	got, ok := s.Result(view.ID)
	if !ok {
		t.Fatal("Result missing for completed job")
	}
	if want := directResult(t, spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("service result differs from RunSweep\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestDedupSharesOneJob: identical compute specs from different tenants
// content-address to one job; the second submit is a cache hit.
func TestDedupSharesOneJob(t *testing.T) {
	s := newScheduler(t, Config{Workers: 2})
	a := testSpec()
	a.Tenant = "alice"
	b := testSpec()
	b.Tenant = "bob"
	if a.ID() != b.ID() {
		t.Fatalf("tenant changed the content address: %s vs %s", a.ID(), b.ID())
	}
	va, dup, err := s.Submit(a)
	if err != nil || dup {
		t.Fatalf("first submit: dup=%v err=%v", dup, err)
	}
	vb, dup, err := s.Submit(b)
	if err != nil || !dup {
		t.Fatalf("second submit: dup=%v err=%v", dup, err)
	}
	if va.ID != vb.ID {
		t.Fatalf("ids differ: %s vs %s", va.ID, vb.ID)
	}
	waitState(t, s, va.ID)
	// A later resubmission of completed work is an instant cache hit.
	vc, dup, err := s.Submit(a)
	if err != nil || !dup || vc.State != StateCompleted {
		t.Fatalf("resubmit after completion: %+v dup=%v err=%v", vc, dup, err)
	}
	if len(s.List()) != 1 {
		t.Fatalf("want exactly one job, got %d", len(s.List()))
	}
}

// TestAdmissionControl: the bounded queue rejects overflow with
// ErrQueueFull while dedup hits still pass.
func TestAdmissionControl(t *testing.T) {
	s := newScheduler(t, Config{Workers: 1, MaxQueuedJobs: 1})
	first := heavySpec()
	if _, _, err := s.Submit(first); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	second := testSpec()
	if _, _, err := s.Submit(second); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	// Dedup onto the admitted job must not consume a slot or be rejected.
	if _, dup, err := s.Submit(first); err != nil || !dup {
		t.Fatalf("dedup while full: dup=%v err=%v", dup, err)
	}
	if v := waitState(t, s, first.ID()); v.State != StateCompleted {
		t.Fatalf("first job: %s (%s)", v.State, v.Error)
	}
	// Slot freed: the rejected spec is admissible now.
	if _, _, err := s.Submit(second); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestDeadlineFailsOnlyThatJob: a job with a microscopic budget fails
// with a deadline error; a sibling without one completes untouched.
func TestDeadlineFailsOnlyThatJob(t *testing.T) {
	s := newScheduler(t, Config{Workers: 2})
	doomed := heavySpec()
	doomed.TimeoutSeconds = 0.001
	sibling := testSpec()
	vd, _, err := s.Submit(doomed)
	if err != nil {
		t.Fatal(err)
	}
	vs, _, err := s.Submit(sibling)
	if err != nil {
		t.Fatal(err)
	}
	if d := waitState(t, s, vd.ID); d.State != StateFailed || !strings.Contains(d.Error, "deadline exceeded") {
		t.Fatalf("doomed job: state=%s err=%q, want failed/deadline", d.State, d.Error)
	}
	if sv := waitState(t, s, vs.ID); sv.State != StateCompleted {
		t.Fatalf("sibling: state=%s err=%q, want completed", sv.State, sv.Error)
	}
}

// TestCancel: canceling stops dispatch for that job alone.
func TestCancel(t *testing.T) {
	s := newScheduler(t, Config{Workers: 1})
	v, _, err := s.Submit(heavySpec())
	if err != nil {
		t.Fatal(err)
	}
	cv, ok := s.Cancel(v.ID)
	if !ok || cv.State != StateCanceled {
		t.Fatalf("Cancel: ok=%v view=%+v", ok, cv)
	}
	if _, ok := s.Cancel("nope"); ok {
		t.Fatal("Cancel of unknown id reported ok")
	}
	// Canceling again is a stable no-op.
	cv2, ok := s.Cancel(v.ID)
	if !ok || cv2.State != StateCanceled {
		t.Fatalf("second Cancel: ok=%v view=%+v", ok, cv2)
	}
}

// TestTenantFairness: with one worker and two tenants, round-robin at
// cell granularity means neither tenant's job finishes before the other
// has made progress.
func TestTenantFairness(t *testing.T) {
	s := newScheduler(t, Config{Workers: 1})
	a := testSpec()
	a.Tenant = "alice"
	b := testSpec()
	b.Tenant = "bob"
	b.Seed = 8 // distinct content address
	va, _, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	vb, _, err := s.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	// Watch until the first of the two completes; the other must already
	// have journaled cells by then (strict FIFO would show zero).
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ja, _ := s.Get(va.ID)
		jb, _ := s.Get(vb.ID)
		if ja.State == StateCompleted {
			if jb.CellsDone == 0 {
				t.Fatalf("alice finished with bob starved: %+v", jb)
			}
			return
		}
		if jb.State == StateCompleted {
			if ja.CellsDone == 0 {
				t.Fatalf("bob finished with alice starved: %+v", ja)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("neither job completed")
}

// TestRestartResume (scheduler level): drain mid-sweep, restart against
// the same state directory, and the finished job's result — and its TSV
// rendering — must be byte-identical to an uninterrupted service run.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	s1, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let some (not all) cells land, then stop the world.
	deadline := time.Now().Add(30 * time.Second)
	for {
		jv, _ := s1.Get(v.ID)
		if jv.CellsDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cells completed")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()
	before, _ := s1.Get(v.ID)
	if before.State == StateCompleted {
		t.Skip("job finished before the restart point; nothing to resume")
	}

	s2 := newScheduler(t, Config{Workers: 2, StateDir: dir})
	jv, ok := s2.Get(v.ID)
	if !ok {
		t.Fatalf("job %s not re-admitted after restart", v.ID)
	}
	if jv.CellsDone < before.CellsDone {
		t.Fatalf("journaled progress lost: %d before, %d after", before.CellsDone, jv.CellsDone)
	}
	if fv := waitState(t, s2, v.ID); fv.State != StateCompleted {
		t.Fatalf("resumed job: %s (%s)", fv.State, fv.Error)
	}
	got, _ := s2.Result(v.ID)
	want := directResult(t, spec)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run\ngot:  %+v\nwant: %+v", got, want)
	}
	if g, w := tsv(t, got), tsv(t, want); g != w {
		t.Fatalf("resumed TSV differs:\n%s\nvs\n%s", g, w)
	}

	// A third start with the fully journaled state completes instantly
	// from the journal alone — the content-addressed cache across
	// restarts.
	s3 := newScheduler(t, Config{Workers: 1, StateDir: dir})
	if fv, ok := s3.Get(v.ID); !ok || fv.State != StateCompleted {
		t.Fatalf("cold-cache start: ok=%v view=%+v", ok, fv)
	}
	if got3, ok := s3.Result(v.ID); !ok || !reflect.DeepEqual(got3, want) {
		t.Fatalf("cold-cache result differs")
	}
}

// TestRetentionGC: with Retain set, a finished job is collected — gone
// from the job table AND from the state directory — so a restart against
// the same directory does not re-admit it, and resubmitting the same
// spec recomputes it as a fresh job instead of hitting the result cache.
func TestRetentionGC(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	s1 := newScheduler(t, Config{Workers: 2, StateDir: dir, Retain: 100 * time.Millisecond})
	v, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fv := waitState(t, s1, v.ID); fv.State != StateCompleted {
		t.Fatalf("job: %s (%s)", fv.State, fv.Error)
	}
	// The watchdog GC fires within a tick or two of the window lapsing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := s1.Get(v.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal job never collected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(s1.List()); n != 0 {
		t.Fatalf("job table not empty after GC: %d jobs", n)
	}
	for _, path := range []string{
		filepath.Join(dir, "jobs", v.ID+".json"),
		filepath.Join(dir, "journals", v.ID+".ckpt"),
	} {
		// Removal happens just after the table unlink; give it a moment.
		st := time.Now().Add(5 * time.Second)
		for {
			if _, err := os.Stat(path); os.IsNotExist(err) {
				break
			}
			if time.Now().After(st) {
				t.Fatalf("state file survived GC: %s", path)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	s1.Close()

	// Restart: the collected job must NOT be re-admitted.
	s2 := newScheduler(t, Config{Workers: 2, StateDir: dir, Retain: time.Hour})
	if _, ok := s2.Get(v.ID); ok {
		t.Fatal("collected job resurrected by restart")
	}
	if n := len(s2.List()); n != 0 {
		t.Fatalf("restart re-admitted %d collected jobs", n)
	}

	// Resubmitting the identical spec is a cache MISS now: a fresh job
	// with the same content address, recomputed from scratch.
	v2, dup, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatal("resubmit after GC reported a dedup hit")
	}
	if v2.ID != v.ID {
		t.Fatalf("content address changed: %s vs %s", v2.ID, v.ID)
	}
	if fv := waitState(t, s2, v2.ID); fv.State != StateCompleted {
		t.Fatalf("recomputed job: %s (%s)", fv.State, fv.Error)
	}
	got, _ := s2.Result(v2.ID)
	if want := directResult(t, spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("recomputed result differs from direct run")
	}
}

// TestConcurrentLoad: 100 concurrent clients hammer a bounded scheduler
// with 8 distinct specs. Admission rejections carry ErrQueueFull and
// clients retry; every spec eventually completes with the correct result,
// and dedup means exactly 8 jobs exist at the end. Memory stays bounded
// because the worker pool (not the client count) owns the worlds.
func TestConcurrentLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	s := newScheduler(t, Config{Workers: 4, MaxQueuedJobs: 4})
	specs := make([]JobSpec, 8)
	for i := range specs {
		sp := JobSpec{
			Param: "r", Values: []float64{3, 5}, N: 300, R: 5, V: 0.3,
			Trials: 2, MaxSteps: 8000, Seed: uint64(100 + i), Source: "center",
		}
		specs[i] = sp
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 100)
	for c := 0; c < 100; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sp := specs[c%len(specs)]
			sp.Tenant = fmt.Sprintf("tenant-%d", c%5)
			for attempt := 0; ; attempt++ {
				_, _, err := s.Submit(sp)
				if err == nil {
					return
				}
				if !errors.Is(err, ErrQueueFull) {
					errCh <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				if attempt > 10000 {
					errCh <- fmt.Errorf("client %d: starved by admission control", c)
					return
				}
				time.Sleep(5 * time.Millisecond) // honor Retry-After
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for _, sp := range specs {
		if v := waitState(t, s, sp.ID()); v.State != StateCompleted {
			t.Fatalf("job %s: %s (%s)", sp.ID(), v.State, v.Error)
		}
	}
	if n := len(s.List()); n != len(specs) {
		t.Fatalf("dedup failed: %d jobs for %d distinct specs", n, len(specs))
	}
	got, _ := s.Result(specs[3].ID())
	if want := directResult(t, specs[3]); !reflect.DeepEqual(got, want) {
		t.Fatalf("spot-checked result differs under load")
	}
}

// TestHTTPAPI drives the full HTTP surface end to end against a real
// scheduler: submit, poll, result in both formats, cancel, error paths.
// TestSubmitRejectsUnrunnablePoints: a spec whose every cell would fail
// (a point sim cannot build, a fractional agent count, a negative step
// budget) is a bad spec, answered 400 at submission — no job is admitted
// and nothing is written to the state directory.
func TestSubmitRejectsUnrunnablePoints(t *testing.T) {
	dir := t.TempDir()
	sched := newScheduler(t, Config{Workers: 1, StateDir: dir})
	ts := httptest.NewServer(NewServer(sched))
	t.Cleanup(ts.Close)

	for _, body := range []string{
		`{"param":"r","values":[-1],"n":100,"v":0.1,"trials":1}`,
		`{"param":"r","values":[3],"n":100,"v":0,"trials":1}`,
		`{"param":"v","values":[0.3,-0.1],"n":100,"r":3,"trials":1}`,
		`{"param":"r","values":[3],"n":0,"v":0.1,"trials":1}`,
		`{"param":"n","values":[-5],"r":3,"v":0.1,"trials":1}`,
		`{"param":"n","values":[2.5],"r":3,"v":0.1,"trials":1}`,
		`{"param":"r","values":[3],"n":100,"v":0.1,"trials":1,"max_steps":-1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg := new(bytes.Buffer)
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, strings.TrimSpace(msg.String()))
		}
	}
	if jobs := sched.List(); len(jobs) != 0 {
		t.Fatalf("rejected specs admitted %d jobs", len(jobs))
	}
	for _, sub := range []string{"jobs", "journals"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("rejected specs wrote %d files under %s/", len(entries), sub)
		}
	}
}

func TestHTTPAPI(t *testing.T) {
	sched := newScheduler(t, Config{Workers: 2})
	ts := httptest.NewServer(NewServer(sched))
	t.Cleanup(ts.Close)

	post := func(body string) (*http.Response, submitResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr submitResponse
		json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		return resp, sr
	}

	// Invalid specs are 400 with the CLI's validation message.
	if resp, _ := post(`{"param":"q","values":[3],"n":100,"r":5,"v":0.3,"trials":1,"seed":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad param: status %d", resp.StatusCode)
	}
	if resp, _ := post(`{"param":"r","bogus_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}

	spec := testSpec()
	blob, _ := json.Marshal(spec)
	resp, sr := post(string(blob))
	if resp.StatusCode != http.StatusAccepted || sr.ID == "" {
		t.Fatalf("submit: status %d view %+v", resp.StatusCode, sr)
	}
	if resp2, sr2 := post(string(blob)); resp2.StatusCode != http.StatusOK || !sr2.Deduplicated {
		t.Fatalf("dup submit: status %d view %+v", resp2.StatusCode, sr2)
	}

	// Unknown ids 404 on every per-job route.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, r.StatusCode)
		}
	}

	// Poll until completed.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		json.NewDecoder(r.Body).Decode(&v)
		r.Body.Close()
		if v.State == StateCompleted {
			break
		}
		if v.State.terminal() {
			t.Fatalf("job ended %s: %s", v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out polling")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// TSV result matches the in-process sweep byte for byte.
	r, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/result?format=tsv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("tsv result: status %d", r.StatusCode)
	}
	if want := tsv(t, directResult(t, spec)); buf.String() != want {
		t.Fatalf("TSV over HTTP differs:\n%q\nwant\n%q", buf.String(), want)
	}

	// JSON result parses and has the right shape.
	r, err = http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var jr resultResponse
	json.NewDecoder(r.Body).Decode(&jr)
	r.Body.Close()
	if jr.ID != sr.ID || len(jr.Points) != len(spec.Values) {
		t.Fatalf("json result: %+v", jr)
	}

	// Result of a still-running job is 409.
	long := heavySpec()
	blob, _ = json.Marshal(long)
	_, lr := post(string(blob))
	r, err = http.Get(ts.URL + "/v1/jobs/" + lr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: status %d, want 409", r.StatusCode)
	}

	// Cancel over HTTP.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+lr.ID, nil)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cv JobView
	json.NewDecoder(r.Body).Decode(&cv)
	r.Body.Close()
	if cv.State != StateCanceled {
		t.Fatalf("cancel: %+v", cv)
	}

	// healthz flips to 503 once draining.
	r, _ = http.Get(ts.URL + "/healthz")
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
	sched.Drain(5 * time.Second)
	r, _ = http.Get(ts.URL + "/healthz")
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", r.StatusCode)
	}
	// And submits of new work are refused with Retry-After (dedup hits on
	// existing jobs still answer — those cost nothing).
	fresh := testSpec()
	fresh.Seed = 404
	blob, _ = json.Marshal(fresh)
	resp, _ = post(string(blob))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit while draining: %d retry-after %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}
