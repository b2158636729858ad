// Package faultinject is the build-tag-gated fault-injection layer behind
// the crash-safety test suite (`make test-fault`). In the default build
// the package exports Active as a compile-time false constant, so every
// hook site — guarded by `if faultinject.Active` — is dead-code-eliminated
// and the happy path pays literally nothing (the zero-allocation and
// ns/op gates run on this build). Compiling with `-tags faultinject`
// flips Active to true and arms the hook registry, letting tests force:
//
//   - trial panics (the TrialStart hook panicking inside the trial
//     runner's recover scope) — exercising panic isolation;
//   - mid-sweep kernel downgrade (a TrialStart hook calling
//     kernel.SetGeneric) — exercising the bit-identity contract across a
//     runtime implementation switch;
//   - index delta-update bail (the IndexSyncBail hook forcing
//     sim.World.syncIndex onto the full counting-sort rebuild) —
//     exercising the rebuild/delta bit-identity contract mid-run;
//   - artificial worker stalls (the WorkerStall hook sleeping) —
//     exercising drain/cancellation behavior under slow shards;
//   - stalled or poisoned service jobs (the JobDispatch hook sleeping or
//     panicking on the sweep service's dispatch path) — exercising the
//     watchdog's stall detection and per-job panic isolation in
//     internal/service;
//   - failed or stalled journal commits (the JournalCommit hook
//     returning an error or blocking on the sweep service's committer) —
//     exercising per-job fail-open and the bounded commit queue.
//
// Hooks are registered programmatically by tests (see Set* in the tagged
// build); the layer deliberately has no environment-variable surface, so
// a production binary cannot be faulted by accident.
package faultinject

// Trial identifies the trial a hook fires in, mirroring the coordinates
// the trial runner attaches to recovered panics.
type Trial struct {
	// Experiment is the experiment or sweep identifier, e.g. "E03".
	Experiment string
	// Point is the sweep-point index within the experiment.
	Point int
	// Trial is the trial index within the point.
	Trial int
	// Seed is the trial's derived world seed.
	Seed uint64
	// Shard is the trial-runner worker executing the trial.
	Shard int
}
