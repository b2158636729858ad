package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/experiments"
	"manhattanflood/internal/service"
)

// floodd_durable drives an in-process scheduler through its HTTP handler
// with a closed loop of flooddClients clients, one tenant each: submit a
// sweep job with a seed no other job of the run uses, poll it every
// flooddPoll until it completes, fetch its TSV, submit the next.
const (
	flooddWorkers = 2
	flooddClients = 2
	flooddPoll    = time.Millisecond
	flooddMinJobs = 100
	// A job is 2 points x flooddTrials cells of flooddN agents: a cell
	// floods for about 2 ms against one journal fsync of about 0.1 ms, and
	// a job takes about 40 ms against the 1 ms poll. With smaller cells the
	// fsync latency of a shared disk and the poll tick set the figures,
	// and runs of the same code moved by a third.
	flooddN      = 2000
	flooddTrials = 8
	// flooddRetain lets the scheduler collect finished jobs (spec record,
	// journal and open file) shortly after the client has read them, so a
	// long run neither piles up journals nor runs out of descriptors.
	flooddRetain = 2 * time.Second
	// flooddStallTimeout is cmd/floodd's default watchdog threshold.
	flooddStallTimeout = 5 * time.Minute
	// flooddReplayJobs bounds how many jobs' cells the traced run replays
	// through CellRunner and RecordDurable.
	flooddReplayJobs = 100
	// flooddSetupReps is how many servers a run builds for the set-up
	// median: one build takes about 0.1 ms, so a few samples say little.
	flooddSetupReps = 101
)

// flooddSpec is client c's k-th job of loop phase (the traced run has an
// untraced and a traced loop); the seed is unique within the run.
func flooddSpec(runSeed uint64, phase, c, k int) service.JobSpec {
	return service.JobSpec{
		Param: "r", Values: []float64{2, 4}, N: flooddN, V: 0.3, Trials: flooddTrials,
		Seed:   runSeed<<32 | uint64(phase)<<28 | uint64(c)<<24 | uint64(k),
		Source: "center", Tenant: fmt.Sprintf("tenant-%d", c),
	}
}

// sweepOf is the experiments-layer sweep a job spec stands for (the
// service's defaults filled in).
func sweepOf(js service.JobSpec) experiments.SweepSpec {
	return experiments.SweepSpec{Param: js.Param, Values: js.Values, N: js.N, R: js.R, V: js.V,
		Trials: js.Trials, MaxSteps: 100_000, Seed: js.Seed, Source: js.Source}
}

// flooddJob is one job as a client saw it.
type flooddJob struct {
	spec    service.JobSpec
	latency time.Duration // POST to observed completion
	tsv     []byte
	err     error
}

// flooddServer is a scheduler with its HTTP face and state directory.
type flooddServer struct {
	sched *service.Scheduler
	srv   *service.Server
	dir   string
}

// newFlooddServer builds a scheduler on an empty state directory that
// already exists, as one provisioned for the daemon would: the timed
// set-up is the scheduler's construction and its recovery scan, not the
// file system's mkdir latency, which on a shared disk swings several-fold
// between runs.
func (r *run) newFlooddServer(i int) (flooddServer, time.Duration, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("state-%d", i))
	for _, sub := range []string{"jobs", "journals"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return flooddServer{}, 0, err
		}
	}
	t0 := time.Now()
	sched, err := service.New(service.Config{Workers: flooddWorkers, StateDir: dir,
		StallTimeout: flooddStallTimeout, Retain: flooddRetain})
	if err != nil {
		return flooddServer{}, 0, err
	}
	srv := service.NewServer(sched)
	return flooddServer{sched, srv, dir}, time.Since(t0), nil
}

// flooddSetups builds and closes the server several times for the set-up
// median, then returns a fresh one for the run.
func (r *run) flooddSetups() (flooddServer, []time.Duration, error) {
	var setups []time.Duration
	for i := 0; ; i++ {
		fs, d, err := r.newFlooddServer(i)
		if err != nil {
			return fs, nil, err
		}
		setups = append(setups, d)
		if i == flooddSetupReps-1 {
			return fs, setups, nil
		}
		fs.sched.Close()
	}
}

func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// client runs one closed-loop client until end (and until the run has
// flooddMinJobs jobs), recording spans into tr when tracing.
func (fs flooddServer) client(runSeed uint64, phase, c int, end time.Time, total *counter, tr *tracer) []flooddJob {
	var jobs []flooddJob
	for k := 0; time.Now().Before(end) || total.get() < flooddMinJobs; k++ {
		total.inc()
		spec := flooddSpec(runSeed, phase, c, k)
		job := flooddJob{spec: spec}
		body, _ := json.Marshal(spec) // plain data; cannot fail
		t0 := time.Now()
		id := tr.begin("service.submit")
		rec := serve(fs.srv, http.MethodPost, "/v1/jobs", body)
		tr.end(id)
		var view struct {
			ID           string `json:"id"`
			State        string `json:"state"`
			Deduplicated bool   `json:"deduplicated"`
		}
		if rec.Code != http.StatusAccepted {
			// 429/503 refusals and dedup hits (200) both count as failed:
			// the load must reach the workers, never the result cache.
			job.err = fmt.Errorf("submit answered %d: %s", rec.Code, rec.Body.String())
			jobs = append(jobs, job)
			time.Sleep(flooddPoll)
			continue
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			job.err = fmt.Errorf("decoding submit answer: %w", err)
			jobs = append(jobs, job)
			continue
		}
		for {
			time.Sleep(flooddPoll)
			id := tr.begin("service.poll")
			rec := serve(fs.srv, http.MethodGet, "/v1/jobs/"+view.ID, nil)
			tr.end(id)
			if rec.Code != http.StatusOK {
				job.err = fmt.Errorf("poll answered %d", rec.Code)
				break
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
				job.err = fmt.Errorf("decoding job view: %w", err)
				break
			}
			if view.State == string(service.StateCompleted) {
				job.latency = time.Since(t0)
				break
			}
			if view.State == string(service.StateFailed) || view.State == string(service.StateCanceled) {
				job.err = fmt.Errorf("job %s ended %s", view.ID, view.State)
				break
			}
		}
		if job.err == nil {
			rec := serve(fs.srv, http.MethodGet, "/v1/jobs/"+view.ID+"/result?format=tsv", nil)
			if rec.Code != http.StatusOK {
				job.err = fmt.Errorf("result answered %d", rec.Code)
			}
			job.tsv = rec.Body.Bytes()
		}
		jobs = append(jobs, job)
	}
	return jobs
}

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) inc() { c.mu.Lock(); c.n++; c.mu.Unlock() }
func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// loop runs the closed loop for budget and returns every client's jobs
// and the loop's wall time. With traced set each client records spans
// into its own tracer, merged into r.tr afterwards.
func (r *run) flooddLoop(fs flooddServer, phase int, budget time.Duration, traced bool) ([]flooddJob, time.Duration) {
	var total counter
	out := make([][]flooddJob, flooddClients)
	tracers := make([]*tracer, flooddClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(budget)
	for c := 0; c < flooddClients; c++ {
		if traced {
			tracers[c] = newTracer(r.tr.epoch)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = fs.client(r.seed, phase, c, end, &total, tracers[c])
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	var jobs []flooddJob
	for c := range out {
		jobs = append(jobs, out[c]...)
		if traced {
			r.tr.merge(tracers[c])
		}
	}
	return jobs, wall
}

// checkJobs counts every job and compares each completed job's TSV with
// experiments.RunSweep of the same spec (outside the timed loop). It
// returns the completed latencies, trials and agent-steps.
func (r *run) checkJobs(jobs []flooddJob) (lat []time.Duration, trials int, agentSteps float64) {
	for _, j := range jobs {
		r.attempted++
		if j.err != nil {
			r.fail("job seed %d: %v", j.spec.Seed, j.err)
			continue
		}
		spec := sweepOf(j.spec)
		want, _, res, err := r.runSweep(spec, flooddWorkers)
		if err != nil || !bytes.Equal(want, j.tsv) {
			r.fail("job seed %d: result differs from RunSweep (%v)", j.spec.Seed, err)
			continue
		}
		t, s := r.checkSweep(spec, res)
		trials += t
		agentSteps += s
		lat = append(lat, j.latency)
	}
	return lat, trials, agentSteps
}

func flooddDurable(r *run) error {
	fs, setups, err := r.flooddSetups()
	if err != nil {
		return err
	}
	jobs, wall := r.flooddLoop(fs, 0, r.budget, false)
	fs.sched.Close()
	lat, trials, agentSteps := r.checkJobs(jobs)
	r.endToEnd(setups, lat, trials, agentSteps, wall)
	r.note("cells_per_s\t%.6g\t1/s\t(one cell is one trial)", float64(trials)/wall.Seconds())
	r.note("floodd_load\tclients=%d workers=%d poll=%s jobs=%d completed=%d (p50 and p90 over the completed jobs)",
		flooddClients, flooddWorkers, flooddPoll, len(jobs), len(lat))
	return nil
}

// flooddDurableTraced runs the closed loop untraced for half the budget
// (the baseline), traced for the other half, then replays the first
// flooddReplayJobs jobs' cells through CellRunner and RecordDurable (a
// fresh journal in the same state directory) to split the service's
// time into cell compute, journal fsync and the rest.
func flooddDurableTraced(r *run) error {
	fs, _, err := r.flooddSetups()
	if err != nil {
		return err
	}
	base, _ := r.flooddLoop(fs, 0, r.budget/2, false)
	root := r.tr.begin("bench.floodd_loop")
	jobs, wall := r.flooddLoop(fs, 1, r.budget/2, true)
	r.tr.end(root)
	fs.sched.Close()
	baseLat, _, _ := r.checkJobs(base)
	lat, trials, _ := r.checkJobs(jobs)

	journal, err := checkpoint.OpenAppend(filepath.Join(fs.dir, "journals", "replay.ckpt"))
	if err != nil {
		return err
	}
	defer journal.Close()
	runner := experiments.NewCellRunner(0)
	replayed := 0
	for _, j := range jobs {
		if replayed == flooddReplayJobs || j.err != nil {
			continue
		}
		replayed++
		spec := sweepOf(j.spec)
		for p := range spec.Values {
			for t := 0; t < spec.Trials; t++ {
				id := r.tr.begin("service.cell")
				res, err := runner.Run(spec, p, t)
				r.tr.end(id)
				if err != nil {
					return err
				}
				id = r.tr.begin("checkpoint.record")
				err = journal.RecordDurable(spec.Unit(p, t), res)
				r.tr.end(id)
				if err != nil {
					return err
				}
			}
		}
	}
	if err := journal.Close(); err != nil {
		return err
	}
	os.Remove(filepath.Join(fs.dir, "journals", "replay.ckpt"))

	st := r.tr.stats()
	r.set("service.submit_ms_p50", nsQuantile(st.get("service.submit").durs, 0.5)/1e6, "ms")
	r.set("service.cell_ms", st.mean("service.cell")/1e6, "ms")
	recs := st.get("checkpoint.record").durs
	r.set("checkpoint.record_us_p50", nsQuantile(recs, 0.5)/1e3, "us")
	r.set("checkpoint.record_us_p99", nsQuantile(recs, 0.99)/1e3, "us")
	// The scheduler's workers run the cells and journal writes; their
	// share of the worker capacity comes from the replayed per-cell costs.
	busy := float64(trials) * (st.mean("service.cell") + st.mean("checkpoint.record"))
	capacity := flooddWorkers * float64(wall)
	r.set("service.overhead_share", 1-busy/capacity, "ratio")
	clientSelf := float64(st.total("service.submit") + st.total("service.poll"))
	r.set("unattributed_share", 1-(busy+clientSelf)/capacity, "ratio")
	if len(baseLat) > 0 && len(lat) > 0 {
		r.set("tracing_overhead", durQuantile(lat, 0.5)/durQuantile(baseLat, 0.5), "x")
	}
	r.note("floodd_load\tclients=%d workers=%d poll=%s traced_jobs=%d baseline_jobs=%d replayed_jobs=%d",
		flooddClients, flooddWorkers, flooddPoll, len(jobs), len(base), replayed)
	r.finishLayers()
	return nil
}
