//go:build !faultinject

package faultinject

// Active is false in the default build: every `if faultinject.Active`
// hook site is dead code the compiler removes, so the instrumented paths
// cost nothing when fault injection is compiled out.
const Active = false

// FireTrialStart is a no-op in the default build.
func FireTrialStart(Trial) {}

// FireWorkerStall is a no-op in the default build.
func FireWorkerStall(shard int) {}

// FireIndexSyncBail never forces a rebuild in the default build.
func FireIndexSyncBail() bool { return false }

// FireJobDispatch is a no-op in the default build.
func FireJobDispatch(jobID string, point, trial int) {}

// FireJournalCommit never fails a commit in the default build.
func FireJournalCommit(jobID string) error { return nil }
