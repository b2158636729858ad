//go:build !faultinject

package faultinject

import "testing"

// The default build must keep fault injection fully disarmed: Active is a
// compile-time false (hook sites guarded by it are dead code) and the
// Fire entry points are inert no-ops.
func TestDefaultBuildIsInert(t *testing.T) {
	if Active {
		t.Fatal("Active must be false without the faultinject build tag")
	}
	FireTrialStart(Trial{Experiment: "E03"})
	FireWorkerStall(3)
	if FireIndexSyncBail() {
		t.Error("FireIndexSyncBail must report false in the default build")
	}
	if err := FireJournalCommit("job"); err != nil {
		t.Errorf("FireJournalCommit = %v, want nil in the default build", err)
	}
}
