// Package service is the resident, multi-tenant sweep server behind
// cmd/floodd. Clients POST declarative sweep specs and get back job IDs,
// status polling, and TSV/JSON results; a reconciling scheduler drains
// the diff between each job's spec (the desired sweep) and its status
// (the set of completed (point, trial) cells) through a shared pool of
// crash-safe trial workers.
//
// The package is built crash-only. Every accepted job's spec is persisted
// before the submit call returns, every completed cell is fsynced to the
// job's checkpoint journal before it is counted, and restart is the
// recovery path: a process that was SIGKILLed mid-sweep is restarted
// against the same state directory, re-admits every accepted job, replays
// the journaled cells, and completes the rest with results byte-identical
// to an uninterrupted run (trials are independently seeded; aggregation
// is shared with the in-process runner). Graceful shutdown is the same
// machinery minus the kill: stop admitting, let in-flight trials finish,
// wait for their cells to reach disk, close journals, report what remains.
//
// Workers claim a job's cells in dispatch units. An r sweep's unit is
// one trial of up to experiments.MaxLanes (8) consecutive points, the
// cells of it not journaled yet, flooded as radius lanes over one world:
// one Reset and one trajectory for all of them. A v or n sweep's unit is
// one cell, since its points follow different trajectories. Every cell
// of a unit keeps its own journal line and its own count in cells_done.
// Two things are measured in units, not cells: the stall watchdog times
// a unit, which lasts as long as its longest lane, and tenant
// round-robin hands out one unit per turn, so an r-sweep tenant gets up
// to 8 cells of compute per turn where a v or n sweep tenant gets one.
//
// Workers do not wait for the fsync. Each hands its computed unit's cells
// to the scheduler's one committer goroutine, through a queue bounded at
// a few cells per worker, and takes its next unit. The committer appends
// every queued cell, fsyncs each touched journal once per batch, and only
// then counts the batch's cells. A job the batch completes has its
// journal closed and its entries dropped; its result is served from
// memory. In-memory schedulers take the same path; their fsync is a
// no-op.
//
// Robustness boundaries are per job, never per process: admission control
// bounds the queue (429 with Retry-After under load), per-job deadlines
// and a stall watchdog fail exactly the job that breached them, a
// panicking trial poisons only its own job while sibling tenants'
// sweeps complete unaffected, a failed journal write degrades only its
// own job to journal_degraded (results stay correct), and per-tenant
// round-robin keeps one noisy tenant from starving the rest of the worker
// pool.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/experiments"
)

// JobSpec is the declarative sweep a client submits: the goal state. The
// compute-relevant fields (everything except Tenant) are content-hashed
// into the job ID, so two identical submissions — same grid, same seed
// policy, same budget — are the same job and share one result: the job
// table doubles as a content-addressed result cache.
type JobSpec struct {
	// Param is the swept axis: "r", "v", or "n".
	Param string `json:"param"`
	// Values are the swept axis's values, one sweep point each.
	Values []float64 `json:"values"`
	// N is the agent count (fixed unless Param == "n").
	N int `json:"n"`
	// R is the transmission radius (fixed unless Param == "r").
	R float64 `json:"r"`
	// V is the agent speed (fixed unless Param == "v").
	V float64 `json:"v"`
	// Trials is the number of independently seeded runs per point.
	Trials int `json:"trials"`
	// MaxSteps is the step budget per run (0 = 100000, the CLI default).
	MaxSteps int `json:"max_steps,omitempty"`
	// Seed is the base seed; trial t of every point derives its own world
	// seed from it, which is what makes cells independently computable.
	Seed uint64 `json:"seed"`
	// Source is the source placement: "center" (default), "corner", or
	// "random".
	Source string `json:"source,omitempty"`
	// Tenant names the submitting client for fair scheduling. Tenants
	// round-robin over the worker pool; the empty tenant is a tenant too.
	Tenant string `json:"tenant,omitempty"`
	// TimeoutSeconds is the per-job deadline measured from admission
	// (0 = the server's default; the server may also impose a cap). A job
	// that breaches its deadline fails alone — completed cells stay
	// journaled but the job will not be resumed.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// normalize fills CLI-compatible defaults in place.
func (s *JobSpec) normalize() {
	if s.MaxSteps == 0 {
		s.MaxSteps = 100000
	}
	if s.Source == "" {
		s.Source = "center"
	}
}

// sweep converts the spec to the experiments-layer sweep description.
func (s JobSpec) sweep() experiments.SweepSpec {
	return experiments.SweepSpec{
		Param: s.Param, Values: s.Values,
		N: s.N, R: s.R, V: s.V,
		Trials: s.Trials, MaxSteps: s.MaxSteps,
		Seed: s.Seed, Source: s.Source,
	}
}

// Validate reports whether the spec is runnable, with the same rules (and
// messages) as the sweep CLI.
func (s JobSpec) Validate() error {
	if s.TimeoutSeconds < 0 {
		return fmt.Errorf("timeout_seconds must be >= 0")
	}
	return s.sweep().Validate()
}

// ID returns the job's content address: a hash over every
// compute-relevant field (tenant excluded — the same sweep submitted by
// two tenants is the same work). Identical (spec fingerprint, seed)
// submissions therefore dedup onto one job.
func (s JobSpec) ID() string {
	key := s
	key.Tenant = ""
	blob, err := json.Marshal(key)
	if err != nil {
		// JobSpec is plain data; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// State is a job's lifecycle position. The legal moves are
// admit -> queued -> running -> {completed | failed | canceled}, with
// queued -> {failed | canceled} allowed (deadline or cancel before the
// first dispatch). Completed is the only state restart-resume recreates
// work for; failed and canceled jobs stay terminal across restarts until
// their journals are deleted.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// terminal reports whether no further cells of the job may be dispatched.
func (s State) terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// cellRef names one (point, trial) cell of a job.
type cellRef struct {
	point int
	trial int
}

// unitRef names one dispatch unit of a job: trial `trial` of the points
// first, ..., first+lanes-1, which a worker floods together as radius
// lanes over one world (experiments.CellRunner.RunLanes). A v or n
// sweep's unit is a single cell.
type unitRef struct {
	first int
	lanes int // at most experiments.MaxLanes, which fits run
	trial int
	run   uint32 // bit l: point first+l's cell is not journaled yet and runs
}

// runs reports whether lane l of the unit runs.
func (u unitRef) runs(l int) bool { return u.run&(1<<l) != 0 }

// job is the scheduler's mutable record for one accepted spec: the spec
// is the goal state, the journal is the durable status, and pending is
// the reconcile diff the workers drain. All fields are guarded by the
// scheduler's mutex except journal, which has its own; id, sweep and
// journal never change after admission, so the committer reads them
// without the scheduler's mutex.
type job struct {
	id      string
	spec    JobSpec
	sweep   experiments.SweepSpec
	journal *checkpoint.Journal

	state   State
	err     error
	pending []unitRef // units with cells not yet journaled, in dispatch order
	next    int       // index into pending of the next unit to dispatch
	done    int       // cells whose journal lines are on disk
	total   int       // len(Values) * Trials
	counted bool      // occupies an admission slot

	deadline   time.Time // zero = no deadline
	finishedAt time.Time // when the job turned terminal (retention clock)
	result     *experiments.SweepResult

	// journalDegraded notes a failed journal Append or Sync: the job keeps
	// running from memory (fail open — computed results are still
	// correct) but a restart may have to re-run the unrecorded cells.
	journalDegraded bool

	// busy counts the job's units running on workers plus its cells
	// queued for the committer; released is set once a terminal job with
	// busy == 0 has its journal queued for release.
	busy     int
	released bool
}

// view renders the job for API responses.
func (j *job) view() JobView {
	v := JobView{
		ID:         j.id,
		State:      j.state,
		Tenant:     j.spec.Tenant,
		Param:      j.spec.Param,
		CellsDone:  j.done,
		CellsTotal: j.total,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.journalDegraded {
		v.JournalDegraded = true
	}
	return v
}

// JobView is the API-facing status of a job.
type JobView struct {
	// ID is the job's content-addressed identifier.
	ID string `json:"id"`
	// State is the job's lifecycle state.
	State State `json:"state"`
	// Tenant is the submitting tenant (first submitter when deduped).
	Tenant string `json:"tenant,omitempty"`
	// Param is the swept axis, echoed for display.
	Param string `json:"param"`
	// CellsDone counts journaled (point, trial) cells.
	CellsDone int `json:"cells_done"`
	// CellsTotal is the job's total cell count.
	CellsTotal int `json:"cells_total"`
	// Error carries the failure report of a failed or canceled job.
	Error string `json:"error,omitempty"`
	// JournalDegraded reports that a checkpoint write failed and the job
	// continued from memory: results are valid, resume coverage is not
	// guaranteed.
	JournalDegraded bool `json:"journal_degraded,omitempty"`
}

// ResultPoint is one row of a completed job's result in JSON form.
type ResultPoint struct {
	Value      float64 `json:"value"`
	MeanT      float64 `json:"mean_t"`
	CI95       float64 `json:"ci95"`
	CZTime     float64 `json:"cz_time"`
	SuburbLag  float64 `json:"suburb_lag"`
	LOverR     float64 `json:"l_over_r"`
	SecondTerm float64 `json:"second_term"`
	Completed  int     `json:"completed"`
	Trials     int     `json:"trials"`
}

// resultPoints converts a sweep result for JSON rendering.
func resultPoints(res experiments.SweepResult) []ResultPoint {
	out := make([]ResultPoint, 0, len(res.Points))
	for _, p := range res.Points {
		out = append(out, ResultPoint{
			Value: p.Value, MeanT: p.MeanT, CI95: p.CI95,
			CZTime: p.CZTime, SuburbLag: p.SuburbLag,
			LOverR: p.LOverR, SecondTerm: p.SecondTerm,
			Completed: p.Completed, Trials: p.Trials,
		})
	}
	return out
}
