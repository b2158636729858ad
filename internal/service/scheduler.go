package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"encoding/json"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/experiments"
	"manhattanflood/internal/faultinject"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is returned when admission control rejects a new job
	// because the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining is returned when the scheduler has stopped admitting
	// because shutdown is in progress (HTTP 503).
	ErrDraining = errors.New("service: draining, not admitting new jobs")
	// ErrBadSpec wraps spec validation failures (HTTP 400).
	ErrBadSpec = errors.New("service: invalid job spec")
)

// Config sizes the scheduler.
type Config struct {
	// Workers is the shared trial worker pool size (0 = GOMAXPROCS).
	// Memory under load is bounded by this: each worker owns exactly one
	// pooled world, no matter how many jobs or tenants are in flight.
	Workers int
	// MaxQueuedJobs bounds how many jobs may occupy admission slots
	// (queued or running) at once; submissions beyond it get ErrQueueFull
	// until capacity frees up. 0 means the default (64); negative means
	// unbounded. Jobs re-admitted from the state directory at startup
	// bypass the bound — accepted work stays accepted.
	MaxQueuedJobs int
	// DefaultTimeout is the per-job deadline applied when a spec does not
	// set its own (0 = none).
	DefaultTimeout time.Duration
	// StallTimeout is the watchdog threshold: a single dispatch unit on a
	// worker for longer than this fails its job and the wedged worker is
	// replaced (0 = watchdog stall detection off). A unit runs one trial
	// of up to experiments.MaxLanes points of an r sweep as radius lanes,
	// so it lasts as long as its longest lane.
	StallTimeout time.Duration
	// StateDir makes jobs durable: specs under <dir>/jobs, per-job
	// checkpoint journals under <dir>/journals. Empty runs in memory.
	StateDir string
	// Retain bounds how long terminal jobs (completed, failed, canceled)
	// are kept before the garbage collector drops them — from the job
	// table AND from the state directory (spec record plus journal), so a
	// restart does not re-admit them. 0 keeps terminal jobs forever (the
	// historical behavior). Since job IDs are content addresses, Retain
	// is also the result-cache window: resubmitting a collected spec
	// recomputes it as a fresh job.
	Retain time.Duration
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// commitQueuePerWorker bounds the committer's queue at this many computed
// cells per worker: a slow disk holds the workers back instead of letting
// results that are not yet on disk pile up in memory. A finished unit
// enters whole once the queue has room for one cell, so the queue holds
// at most a unit's cells less one past the bound, and a unit wider than
// the bound still gets in.
const commitQueuePerWorker = 4

// finishedCell is a computed cell waiting for the committer.
type finishedCell struct {
	job  *job
	cell cellRef
	res  checkpoint.Result
}

// touchedJob is one job a commit batch wrote to, with the first error its
// journal's Append or Sync returned.
type touchedJob struct {
	job *job
	err error
}

// runningUnit is the watchdog's view of one in-flight unit.
type runningUnit struct {
	job       *job
	unit      unitRef
	started   time.Time
	abandoned bool // watchdog gave up on this worker; result is discarded
}

// Scheduler reconciles job specs (desired sweeps) against job status
// (journaled cells) by draining the diff through a fixed pool of pooled
// trial workers, round-robin across tenants. See the package comment for
// the robustness contract.
type Scheduler struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond

	jobs  map[string]*job
	order []string // submission order, for listing

	knownTenants map[string]bool
	tenantOrder  []string          // round-robin rotation
	queues       map[string][]*job // runnable jobs per tenant
	rr           int

	admitted int // jobs holding admission slots (queued or running)
	draining bool
	closed   bool

	running    map[int]*runningUnit // worker id -> in-flight unit
	active     int                  // live, non-abandoned workers
	nextWorker int

	// commits is the committer's queue of computed cells. uncommitted
	// counts them plus the batch the committer is writing: cells computed
	// but not yet on disk nor counted, at most commitQueuePerWorker per
	// worker. commitStop tells the committer to exit; Drain sets it.
	commits     []finishedCell
	uncommitted int
	commitStop  bool
	commitCond  *sync.Cond // signals the committer

	// releases queues the journals of terminal jobs that nothing appends
	// to any more (see releaseWhenIdleLocked); the committer releases
	// them outside the lock.
	releases []*job

	watchStop chan struct{}
	watchOnce sync.Once
}

// New builds the scheduler, re-admits every job recorded in the state
// directory (restart-resume), and starts the worker pool, the committer
// and the watchdog.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueuedJobs == 0 {
		cfg.MaxQueuedJobs = 64
	}
	s := &Scheduler{
		cfg:          cfg,
		jobs:         make(map[string]*job),
		knownTenants: make(map[string]bool),
		queues:       make(map[string][]*job),
		running:      make(map[int]*runningUnit),
		watchStop:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.commitCond = sync.NewCond(&s.mu)

	if cfg.StateDir != "" {
		for _, sub := range []string{"jobs", "journals"} {
			if err := os.MkdirAll(filepath.Join(cfg.StateDir, sub), 0o755); err != nil {
				return nil, fmt.Errorf("service: creating state dir: %w", err)
			}
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	for i := 0; i < cfg.Workers; i++ {
		s.spawnWorkerLocked()
	}
	s.mu.Unlock()
	go s.committer()
	go s.watchdog()
	return s, nil
}

// recover re-admits every accepted job found in the state directory.
// Crash-only rule: restart IS the recovery path, so this is the same
// admission code the live path uses, minus the queue bound (work that was
// accepted before the crash stays accepted). A job that cannot be
// re-admitted (corrupt record, corrupt journal) is logged and skipped —
// fail open, one broken record must not hold the rest of the fleet
// hostage — and its files are left in place for inspection.
func (s *Scheduler) recover() error {
	dir := filepath.Join(s.cfg.StateDir, "jobs")
	names, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("service: reading state dir: %w", err)
	}
	sort.Slice(names, func(i, k int) bool { return names[i].Name() < names[k].Name() })
	n := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, de := range names {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		path := filepath.Join(dir, de.Name())
		blob, err := os.ReadFile(path)
		if err != nil {
			s.logf("service: resume: skipping %s: %v", path, err)
			continue
		}
		var spec JobSpec
		if err := json.Unmarshal(blob, &spec); err != nil {
			s.logf("service: resume: skipping %s: %v", path, err)
			continue
		}
		spec.normalize()
		if err := spec.Validate(); err != nil {
			s.logf("service: resume: skipping %s: %v", path, err)
			continue
		}
		if _, err := s.admitLocked(spec, true); err != nil {
			s.logf("service: resume: skipping job %s: %v", spec.ID(), err)
			continue
		}
		n++
	}
	if n > 0 {
		s.logf("service: resumed %d jobs from %s", n, s.cfg.StateDir)
	}
	return nil
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit admits a job (or dedups onto an existing one — the returned bool
// reports a cache hit). Admission is atomic with persistence: when a
// state directory is configured, the spec record and journal exist and
// are fsynced before Submit returns, so an accepted job survives SIGKILL
// from that instant on.
func (s *Scheduler) Submit(spec JobSpec) (JobView, bool, error) {
	spec.normalize()
	if err := spec.Validate(); err != nil {
		return JobView{}, false, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	id := spec.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.view(), true, nil
	}
	if s.draining || s.closed {
		return JobView{}, false, ErrDraining
	}
	if s.cfg.MaxQueuedJobs > 0 && s.admitted >= s.cfg.MaxQueuedJobs {
		return JobView{}, false, ErrQueueFull
	}
	j, err := s.admitLocked(spec, false)
	if err != nil {
		return JobView{}, false, err
	}
	return j.view(), false, nil
}

// admitLocked creates the job record: durable spec + journal when a state
// dir is configured, the reconcile diff (pending = the units holding spec
// cells that are not journaled), and either immediate completion (fully
// journaled — a content-addressed cache hit across restarts) or a slot in
// its tenant's queue.
//
// An r sweep's unit is one trial of up to experiments.MaxLanes
// consecutive points, its lanes; a wider sweep splits into chunks of
// points, queued chunk-major, so the consecutive units a worker takes
// share their radii and its pooled lanes. A v or n sweep's unit is one
// cell, queued point-major.
func (s *Scheduler) admitLocked(spec JobSpec, resumed bool) (*job, error) {
	id := spec.ID()
	sw := spec.sweep()
	journal := checkpoint.New()
	if s.cfg.StateDir != "" {
		var err error
		journal, err = checkpoint.OpenAppend(filepath.Join(s.cfg.StateDir, "journals", id+".ckpt"))
		if err != nil {
			return nil, fmt.Errorf("service: job %s: %w", id, err)
		}
		if err := sw.CheckJournal(journal); err != nil {
			journal.Close()
			return nil, fmt.Errorf("service: job %s: stale journal: %w", id, err)
		}
		if !resumed {
			if err := writeJobRecord(s.cfg.StateDir, id, spec); err != nil {
				journal.Close()
				return nil, err
			}
		}
	}

	j := &job{
		id: id, spec: spec, sweep: sw, journal: journal,
		state: StateQueued, total: sw.Cells(),
	}
	d := time.Duration(spec.TimeoutSeconds * float64(time.Second))
	if d == 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > 0 {
		j.deadline = time.Now().Add(d)
	}
	width := 1
	if sw.Param == "r" {
		width = experiments.MaxLanes
	}
	for first := 0; first < sw.Points(); first += width {
		lanes := min(width, sw.Points()-first)
		for trial := 0; trial < sw.Trials; trial++ {
			u := unitRef{first: first, lanes: lanes, trial: trial}
			for l := 0; l < lanes; l++ {
				if _, ok := journal.Lookup(sw.Unit(first+l, trial)); ok {
					j.done++
				} else {
					u.run |= 1 << l
				}
			}
			if u.run != 0 {
				j.pending = append(j.pending, u)
			}
		}
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	if j.done >= j.total {
		// Nothing is left to append: completing queues the journal for
		// release. Only a restart (or a journal whose record went
		// missing) admits a complete job.
		s.completeLocked(j)
		return j, nil
	}
	j.counted = true
	s.admitted++
	tenant := spec.Tenant
	if !s.knownTenants[tenant] {
		s.knownTenants[tenant] = true
		s.tenantOrder = append(s.tenantOrder, tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], j)
	s.cond.Broadcast()
	return j, nil
}

// writeJobRecord persists a spec atomically (temp + fsync + rename +
// parent-dir fsync), so either the complete record exists or none does.
func writeJobRecord(stateDir, id string, spec JobSpec) error {
	blob, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding job record: %w", err)
	}
	dir := filepath.Join(stateDir, "jobs")
	tmp, err := os.CreateTemp(dir, id+".tmp*")
	if err != nil {
		return fmt.Errorf("service: creating job record: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("service: writing job record: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("service: syncing job record: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("service: closing job record: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, id+".json")); err != nil {
		return fmt.Errorf("service: publishing job record: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("service: opening state dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("service: syncing state dir: %w", err)
	}
	return nil
}

// spawnWorkerLocked starts one worker goroutine. Caller holds s.mu.
func (s *Scheduler) spawnWorkerLocked() {
	id := s.nextWorker
	s.nextWorker++
	s.active++
	go s.workerLoop(id)
}

// workerLoop is one pooled trial worker: pull a unit (respecting tenant
// fairness, with affinity for the previous job), run its cells as lanes
// isolated, hand them to the committer, repeat. The pooled world's
// zero-allocation Reset path keeps hitting across jobs with the same
// point parameters. Exits on drain/close, or silently when the watchdog
// has abandoned it.
func (s *Scheduler) workerLoop(id int) {
	runner := experiments.NewCellRunner(id)
	run := make([]bool, experiments.MaxLanes)
	out := make([]checkpoint.Result, experiments.MaxLanes)
	var affinity *job
	for {
		j, u, ok := s.nextUnit(id, affinity)
		if !ok {
			s.mu.Lock()
			s.active--
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		affinity = j
		err := s.executeUnit(runner, j, u, run[:u.lanes], out[:u.lanes])
		if !s.finishUnit(id, j, u, out, err) {
			return // abandoned: the watchdog already replaced this worker
		}
	}
}

// nextUnit blocks until a unit is available (returned with the running
// marker set for the watchdog) or the scheduler stops dispatching.
func (s *Scheduler) nextUnit(id int, affinity *job) (*job, unitRef, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed || s.draining {
			return nil, unitRef{}, false
		}
		if j, u, ok := s.pickLocked(affinity); ok {
			if j.state == StateQueued {
				j.state = StateRunning
			}
			s.running[id] = &runningUnit{job: j, unit: u, started: time.Now()}
			j.busy++
			return j, u, true
		}
		s.cond.Wait()
	}
}

// pickLocked chooses the next unit: round-robin across tenants; within
// the chosen tenant, the worker's affinity job if it belongs there and
// still has undispatched units, else the tenant's oldest runnable job.
// A turn is one unit, so an r-sweep tenant gets up to
// experiments.MaxLanes cells of compute per turn where a v or n sweep
// tenant gets one. Jobs past their deadline are failed here (and by the
// watchdog sweep for jobs no dispatch ever reaches).
func (s *Scheduler) pickLocked(affinity *job) (*job, unitRef, bool) {
	n := len(s.tenantOrder)
	now := time.Now()
	for k := 0; k < n; k++ {
		tenant := s.tenantOrder[(s.rr+k)%n]
		var j *job
		for {
			q := s.queues[tenant]
			if len(q) == 0 {
				break
			}
			head := q[0]
			if head.state.terminal() || head.next >= len(head.pending) {
				s.queues[tenant] = q[1:]
				continue
			}
			if !head.deadline.IsZero() && now.After(head.deadline) {
				s.failLocked(head, fmt.Errorf("deadline exceeded (budget %.3gs)", head.spec.TimeoutSeconds))
				continue
			}
			j = head
			break
		}
		if j == nil {
			continue
		}
		if affinity != nil && affinity.spec.Tenant == tenant &&
			!affinity.state.terminal() && affinity.next < len(affinity.pending) {
			j = affinity
		}
		u := j.pending[j.next]
		j.next++
		if j.next >= len(j.pending) {
			s.removeFromQueueLocked(j)
		}
		s.rr = (s.rr + k + 1) % n
		return j, u, true
	}
	return nil, unitRef{}, false
}

// executeUnit fires the server-layer fault hook once per running cell and
// runs the unit's cells as radius lanes, leaving lane l's outcome in
// out[l]. The recover here is the service's own isolation boundary: the
// trial runner already converts trial panics into errors, so anything
// recovered here came from the dispatch path itself (e.g. an injected
// server-layer fault) — it fails this job only, like any other cell
// error.
func (s *Scheduler) executeUnit(runner *experiments.CellRunner, j *job, u unitRef, run []bool, out []checkpoint.Result) (err error) {
	c := cellRef{u.first, u.trial}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job %s cell point=%d trial=%d panicked at dispatch: %v",
				j.id, c.point, c.trial, r)
		}
	}()
	for l := range run {
		run[l] = u.runs(l)
		if run[l] && faultinject.Active {
			c.point = u.first + l
			faultinject.FireJobDispatch(j.id, c.point, c.trial)
		}
	}
	return runner.RunLanes(j.sweep, u.first, u.trial, run, out)
}

// finishUnit hands a computed unit's cells to the committer and returns
// without waiting for the disk, unless the commit queue is full. It
// returns false when the watchdog abandoned this worker meanwhile: the
// results are discarded and the goroutine must exit. A failed unit fails
// its job here and none of its cells is journaled.
func (s *Scheduler) finishUnit(id int, j *job, u unitRef, out []checkpoint.Result, err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rc := s.running[id]
	delete(s.running, id)
	if rc != nil && rc.abandoned {
		return false // the watchdog dropped the unit's hold on the job
	}
	if err != nil {
		j.busy--
		s.failLocked(j, err)
		return true
	}
	for s.uncommitted >= commitQueuePerWorker*s.cfg.Workers && !s.commitStop {
		s.cond.Wait()
	}
	if s.commitStop {
		// Drain has stopped the committer: the cells were never reported,
		// so they are dropped and rerun after a restart.
		j.busy--
		return true
	}
	// The unit's hold on the job passes to its queued cells.
	j.busy--
	for l := 0; l < u.lanes; l++ {
		if u.runs(l) {
			s.commits = append(s.commits, finishedCell{job: j, cell: cellRef{u.first + l, u.trial}, res: out[l]})
			s.uncommitted++
			j.busy++
		}
	}
	s.commitCond.Signal()
	return true
}

// committer is the one goroutine that makes computed cells durable. It
// takes the whole queue, appends every cell's line, syncs each touched
// journal once, and only then counts the cells and completes jobs: a cell
// is in cells_done only once the fsync that covers its line has returned.
// It also releases the journals queued by releaseWhenIdleLocked, outside
// the lock: the file closed without another fsync (every batch synced
// the lines it appended) and the entries dropped, since a completed job
// serves its result from memory and a restart reloads the file.
func (s *Scheduler) committer() {
	var batch []finishedCell
	var touched []touchedJob
	var released []*job
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.commits) == 0 && len(s.releases) == 0 && !s.commitStop {
			s.commitCond.Wait()
		}
		if s.commitStop {
			return
		}
		batch, s.commits = s.commits, batch[:0]
		s.mu.Unlock()
		touched = writeBatch(batch, touched[:0])
		s.mu.Lock()
		if s.commitStop {
			// Drain timed out and closed the journals while this batch was
			// being written; none of it is known to be on disk.
			return
		}
		for _, t := range touched {
			if t.err != nil && !t.job.journalDegraded {
				// Fail open: the in-memory record is intact and results
				// stay correct; only restart-resume coverage for this job
				// degraded.
				t.job.journalDegraded = true
				s.logf("service: job %s: checkpoint write failed, continuing from memory: %v", t.job.id, t.err)
			}
		}
		for _, fc := range batch {
			j := fc.job
			j.done++
			j.busy--
			if j.done >= j.total && !j.state.terminal() {
				s.completeLocked(j)
			}
			s.releaseWhenIdleLocked(j)
		}
		s.uncommitted -= len(batch)
		clear(batch)
		clear(touched)
		s.cond.Broadcast()
		if len(s.releases) > 0 {
			released, s.releases = s.releases, released[:0]
			s.mu.Unlock()
			for _, j := range released {
				if err := j.journal.Release(); err != nil {
					s.logf("service: job %s: releasing journal: %v", j.id, err)
				}
			}
			clear(released)
			s.mu.Lock()
		}
	}
}

// releaseWhenIdleLocked queues j's journal for the committer to release
// once j is terminal and none of its units is running or has cells
// queued for the committer: nothing appends to the journal after that.
// A canceled or failed job may still have a unit in flight (Cancel lets
// it finish and journal its cells), so the unit's last cell leaving the
// commit queue is what releases it. Caller holds s.mu.
func (s *Scheduler) releaseWhenIdleLocked(j *job) {
	if j.busy > 0 || !j.state.terminal() || j.released {
		return
	}
	j.released = true
	s.releases = append(s.releases, j)
	s.commitCond.Signal()
}

// writeBatch appends every cell of batch to its job's journal, then syncs
// each touched journal once. It returns the touched jobs (appended to
// touched) with the first error each one's journal reported.
func writeBatch(batch []finishedCell, touched []touchedJob) []touchedJob {
	for _, fc := range batch {
		k := 0
		for k < len(touched) && touched[k].job != fc.job {
			k++
		}
		if k == len(touched) {
			touched = append(touched, touchedJob{job: fc.job})
		}
		j := fc.job
		if err := j.journal.Append(j.sweep.Unit(fc.cell.point, fc.cell.trial), fc.res); err != nil && touched[k].err == nil {
			touched[k].err = err
		}
	}
	for k := range touched {
		t := &touched[k]
		var err error
		if faultinject.Active {
			err = faultinject.FireJournalCommit(t.job.id)
		}
		if err == nil {
			err = t.job.journal.Sync()
		}
		if t.err == nil {
			t.err = err
		}
	}
	return touched
}

// completeLocked aggregates a fully journaled job into its final result.
func (s *Scheduler) completeLocked(j *job) {
	res, err := experiments.AggregateSweep(j.sweep, func(point, trial int) (checkpoint.Result, bool) {
		return j.journal.Lookup(j.sweep.Unit(point, trial))
	})
	if err != nil {
		s.failLocked(j, err)
		return
	}
	j.result = &res
	s.finalizeLocked(j, StateCompleted, nil)
}

// failLocked finalizes a job as failed with its diagnosable error —
// exactly this job; the scheduler, its workers, and every sibling job
// keep running.
func (s *Scheduler) failLocked(j *job, err error) {
	if j.state.terminal() {
		return
	}
	s.logf("service: job %s failed: %v", j.id, err)
	s.finalizeLocked(j, StateFailed, err)
}

func (s *Scheduler) finalizeLocked(j *job, state State, err error) {
	if j.state.terminal() {
		return
	}
	j.state = state
	j.err = err
	j.finishedAt = time.Now()
	j.pending = nil
	j.next = 0
	s.removeFromQueueLocked(j)
	if j.counted {
		j.counted = false
		s.admitted--
	}
	s.releaseWhenIdleLocked(j)
	s.cond.Broadcast()
}

func (s *Scheduler) removeFromQueueLocked(j *job) {
	q := s.queues[j.spec.Tenant]
	for i, cand := range q {
		if cand == j {
			s.queues[j.spec.Tenant] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}

// watchdog periodically (a) fails jobs whose unit has been wedged on a
// worker past StallTimeout, abandoning and replacing that worker so
// pool capacity survives, (b) sweeps deadlines for jobs dispatch never
// reaches, and (c) garbage-collects terminal jobs older than Retain —
// memory and state directory both, so the job table stays bounded on a
// long-lived server and a restart cannot resurrect collected jobs.
func (s *Scheduler) watchdog() {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		now := time.Now()
		if s.cfg.StallTimeout > 0 {
			for _, rc := range s.running {
				if rc.abandoned || now.Sub(rc.started) <= s.cfg.StallTimeout {
					continue
				}
				rc.abandoned = true
				rc.job.busy-- // its result will be discarded, never journaled
				u := rc.unit
				s.failLocked(rc.job, fmt.Errorf("watchdog: unit points=%d..%d trial=%d stalled for %s (limit %s)",
					u.first, u.first+u.lanes-1, u.trial,
					now.Sub(rc.started).Round(time.Millisecond), s.cfg.StallTimeout))
				// The wedged goroutine is written off (its eventual result
				// is discarded); a fresh worker keeps the pool at size.
				s.active--
				s.spawnWorkerLocked()
			}
		}
		for _, id := range s.order {
			j := s.jobs[id]
			if j.state.terminal() || j.deadline.IsZero() || now.Before(j.deadline) {
				continue
			}
			s.failLocked(j, fmt.Errorf("deadline exceeded (budget %.3gs)", j.spec.TimeoutSeconds))
		}
		var expired []*job
		if s.cfg.Retain > 0 {
			expired = s.collectExpiredLocked(now)
		}
		s.mu.Unlock()
		// File removal happens outside the lock: the collected jobs are
		// already unreachable from the table, so dispatch never blocks on
		// disk, and a crash mid-removal only leaves files the next GC (or
		// a resume + later GC) picks up again.
		for _, j := range expired {
			s.removeJobState(j)
		}
	}
}

// collectExpiredLocked unlinks every terminal job past the retention
// window from the scheduler's table and returns them for state removal.
// Caller holds s.mu.
func (s *Scheduler) collectExpiredLocked(now time.Time) []*job {
	var expired []*job
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state.terminal() && !j.finishedAt.IsZero() && now.Sub(j.finishedAt) > s.cfg.Retain {
			expired = append(expired, j)
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	return expired
}

// removeJobState closes a collected job's journal and deletes its spec
// record and journal file. Missing files are fine (in-memory mode, or a
// previous partial removal).
func (s *Scheduler) removeJobState(j *job) {
	if j.journal != nil {
		if err := j.journal.Close(); err != nil {
			s.logf("service: gc job %s: closing journal: %v", j.id, err)
		}
	}
	if s.cfg.StateDir == "" {
		s.logf("service: gc: dropped job %s (retained %s)", j.id, s.cfg.Retain)
		return
	}
	for _, path := range []string{
		filepath.Join(s.cfg.StateDir, "jobs", j.id+".json"),
		filepath.Join(s.cfg.StateDir, "journals", j.id+".ckpt"),
	} {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			s.logf("service: gc job %s: %v", j.id, err)
		}
	}
	s.logf("service: gc: dropped job %s and its state (retained %s)", j.id, s.cfg.Retain)
}

// Draining reports whether shutdown has begun (healthz turns 503).
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain is the graceful-termination protocol: stop dispatching, let
// in-flight trials finish and the committer put their cells on disk
// (bounded by timeout — a wedged trial or a stalled disk cannot hold
// shutdown hostage), stop the committer, close every journal, and report
// how many jobs still hold unfinished work. Those jobs resume on the next
// start against the same state directory.
func (s *Scheduler) Drain(timeout time.Duration) (remaining int) {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	deadline := time.Now().Add(timeout)
	for (s.active > 0 || s.uncommitted > 0) && time.Now().Before(deadline) {
		s.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		s.mu.Lock()
	}
	if s.active > 0 || s.uncommitted > 0 {
		s.logf("service: drain timed out with %d workers still busy and %d cells not on disk",
			s.active, s.uncommitted)
	}
	s.commitStop = true
	s.commitCond.Signal()
	s.cond.Broadcast()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state == StateQueued || j.state == StateRunning {
			remaining++
		}
		if err := j.journal.Close(); err != nil {
			s.logf("service: job %s: closing journal: %v", j.id, err)
		}
	}
	s.mu.Unlock()
	s.watchOnce.Do(func() { close(s.watchStop) })
	return remaining
}

// Close shuts the scheduler down for tests: drain briefly, then mark
// closed so late workers exit.
func (s *Scheduler) Close() {
	s.Drain(2 * time.Second)
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Get returns a job's status.
func (s *Scheduler) Get(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// List returns every job's status in submission order.
func (s *Scheduler) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Result returns a completed job's sweep result. The bool is false when
// the job is unknown or not (yet) completed.
func (s *Scheduler) Result(id string) (experiments.SweepResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.state != StateCompleted || j.result == nil {
		return experiments.SweepResult{}, false
	}
	return *j.result, true
}

// Cancel finalizes a queued or running job as canceled; in-flight cells
// finish and are journaled (harmless) but nothing further is dispatched.
// Canceling a terminal job is a no-op returning its current view.
func (s *Scheduler) Cancel(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	if !j.state.terminal() {
		s.finalizeLocked(j, StateCanceled, errors.New("canceled by client"))
	}
	return j.view(), true
}
