//go:build faultinject

package faultinject

import "sync"

// Active is true under `-tags faultinject`: hook sites consult the
// registry below on every firing.
const Active = true

// registry holds the armed hooks. A single mutex suffices — hooks fire
// from many goroutines, but only the fault-injection suite runs in this
// build, and the lock is copied out before the hook body runs so a hook
// that itself panics cannot leave the registry locked.
var registry struct {
	mu          sync.Mutex
	trialStart  func(Trial)
	stall       func(shard int)
	indexBail   func() bool
	jobDispatch func(jobID string, point, trial int)
	commit      func(jobID string) error
}

// SetTrialStart arms f to run at the start of every trial, inside the
// trial runner's recover scope: a panicking f is recovered into the same
// structured per-trial error a real trial panic produces. nil disarms.
func SetTrialStart(f func(Trial)) {
	registry.mu.Lock()
	registry.trialStart = f
	registry.mu.Unlock()
}

// SetWorkerStall arms f to run once per trial on the executing worker,
// before the trial body; a sleeping f simulates a slow or wedged shard.
// nil disarms.
func SetWorkerStall(f func(shard int)) {
	registry.mu.Lock()
	registry.stall = f
	registry.mu.Unlock()
}

// SetIndexSyncBail arms f to be consulted by sim.World.syncIndex; when f
// returns true the world abandons the delta-update path for that step and
// runs the full counting-sort rebuild (whose result must be
// bit-identical). nil disarms.
func SetIndexSyncBail(f func() bool) {
	registry.mu.Lock()
	registry.indexBail = f
	registry.mu.Unlock()
}

// SetJobDispatch arms f to run on the sweep service's worker goroutine
// immediately before a dispatched (job, point, trial) cell executes —
// the server-layer fault site. A sleeping f simulates a stalled trial
// (exercising the watchdog); a panicking f simulates a poisoned job
// (exercising per-job panic isolation). nil disarms.
func SetJobDispatch(f func(jobID string, point, trial int)) {
	registry.mu.Lock()
	registry.jobDispatch = f
	registry.mu.Unlock()
}

// SetJournalCommit arms f to run on the sweep service's committer
// goroutine once per job per batch, just before that job's journal is
// synced. A non-nil error from f fails the commit exactly as a failed
// fsync would (the job turns journal_degraded); a blocking f simulates a
// stalled disk (the bounded commit queue then holds the workers back).
// nil disarms.
func SetJournalCommit(f func(jobID string) error) {
	registry.mu.Lock()
	registry.commit = f
	registry.mu.Unlock()
}

// Reset disarms every hook; fault-injection tests defer it.
func Reset() {
	registry.mu.Lock()
	registry.trialStart = nil
	registry.stall = nil
	registry.indexBail = nil
	registry.jobDispatch = nil
	registry.commit = nil
	registry.mu.Unlock()
}

// FireTrialStart runs the armed trial-start hook, if any.
func FireTrialStart(t Trial) {
	registry.mu.Lock()
	f := registry.trialStart
	registry.mu.Unlock()
	if f != nil {
		f(t)
	}
}

// FireWorkerStall runs the armed stall hook, if any.
func FireWorkerStall(shard int) {
	registry.mu.Lock()
	f := registry.stall
	registry.mu.Unlock()
	if f != nil {
		f(shard)
	}
}

// FireJobDispatch runs the armed job-dispatch hook, if any.
func FireJobDispatch(jobID string, point, trial int) {
	registry.mu.Lock()
	f := registry.jobDispatch
	registry.mu.Unlock()
	if f != nil {
		f(jobID, point, trial)
	}
}

// FireJournalCommit runs the armed journal-commit hook; nil when disarmed.
func FireJournalCommit(jobID string) error {
	registry.mu.Lock()
	f := registry.commit
	registry.mu.Unlock()
	if f != nil {
		return f(jobID)
	}
	return nil
}

// FireIndexSyncBail consults the armed bail hook; false when disarmed.
func FireIndexSyncBail() bool {
	registry.mu.Lock()
	f := registry.indexBail
	registry.mu.Unlock()
	if f != nil {
		return f()
	}
	return false
}
