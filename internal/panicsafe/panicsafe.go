// Package panicsafe keeps panics diagnosable across the simulator's
// goroutine boundaries. Go panics do not cross goroutines: a panic inside
// one of the sharded sweep/chaining/stepping workers would tear the whole
// process down before any caller-side recover could see it. Catcher
// converts such a panic into a ShardPanic value captured with its original
// stack and rethrows it on the coordinating goroutine, where the trial
// runner's recover turns it into a structured per-trial error. Fanout
// packages that protocol as the allocation-free range fan-out the
// sharded stepping, index and sweep passes share.
//
// The package also defines InvariantError, the payload of the repo's
// programmer-error panics (slice-length disagreements and similar
// internal-contract violations in internal/spatialindex, internal/cells
// and internal/kernel). These panics are diagnostic, never control flow:
// recovery layers may *report* them — attaching experiment/point/trial
// coordinates — but must never swallow one into a silent fallback, because
// the violated invariant means in-memory state can no longer be trusted.
package panicsafe

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// ShardPanic is a panic recovered from a worker goroutine, rethrown on the
// coordinator so it propagates to the caller with its origin preserved.
type ShardPanic struct {
	// Shard is the index of the worker goroutine that panicked.
	Shard int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack trace, captured at
	// recovery time (the rethrow happens on a different goroutine, whose
	// stack would otherwise be the only one visible).
	Stack []byte
}

// Error implements error so recovered shard panics wrap cleanly into the
// trial runner's structured reports.
func (p *ShardPanic) Error() string {
	return fmt.Sprintf("panic in worker shard %d: %v", p.Shard, p.Value)
}

// Unwrap exposes the original panic value when it was itself an error
// (e.g. an InvariantError), so errors.As can reach it through the shard
// wrapper.
func (p *ShardPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Catcher collects the first panic raised by a group of worker goroutines.
// Each worker defers Recover; after the coordinator's wg.Wait it calls
// Rethrow, which re-panics with the captured ShardPanic (or returns
// immediately when no worker panicked — the zero-cost happy path: one nil
// check). A Catcher is reusable across rounds; Rethrow clears it.
type Catcher struct {
	mu    sync.Mutex
	first *ShardPanic
}

// Recover is deferred by each worker goroutine:
//
//	defer c.Recover(shard)
//
// It captures the first panic (later ones are dropped — one report is
// enough to fail the trial, and the first is the one whose state the
// others likely inherited) together with the panicking stack.
func (c *Catcher) Recover(shard int) {
	r := recover()
	if r == nil {
		return
	}
	// If the value is already a ShardPanic (nested fan-outs), keep the
	// innermost origin.
	sp, ok := r.(*ShardPanic)
	if !ok {
		sp = &ShardPanic{Shard: shard, Value: r, Stack: debug.Stack()}
	}
	c.mu.Lock()
	if c.first == nil {
		c.first = sp
	}
	c.mu.Unlock()
}

// Rethrow re-raises the captured panic on the calling goroutine, if any
// worker panicked since the last Rethrow. Call it right after waiting for
// the workers; the panic then unwinds the coordinator exactly as an
// in-line panic would, reaching the per-trial recover in the runner.
func (c *Catcher) Rethrow() {
	c.mu.Lock()
	sp := c.first
	c.first = nil
	c.mu.Unlock()
	if sp != nil {
		panic(sp)
	}
}

// Fanout runs one pass over contiguous chunks of [0, n) on a group of
// worker goroutines with the Catcher protocol built in: each worker
// defers Recover, and Run rethrows the first worker panic on the calling
// goroutine. Unlike a go statement with a fresh closure per call, Run
// allocates nothing once warm — the per-shard goroutine bodies are built
// on first use and the pass's inputs travel through the Fanout's fields
// — so a per-step fan-out keeps the steady-state hot loops zero-alloc.
// The zero value is ready to use. A Fanout runs one pass at a time and
// must not be copied after first use.
type Fanout struct {
	catch  Catcher
	wg     sync.WaitGroup
	fn     func(shard, lo, hi int)
	n      int
	chunk  int
	bodies []func()
}

// Run invokes fn(shard, lo, hi) for up to workers contiguous chunks of
// [0, n), concurrently when workers > 1 (shard s covers
// [s*chunk, min((s+1)*chunk, n)) with chunk = ceil(n/workers)). With
// workers <= 1 or n == 0 it calls fn(0, 0, n) on the calling goroutine.
// fn must write only shard-disjoint state.
func (f *Fanout) Run(workers, n int, fn func(shard, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	shards := (n + chunk - 1) / chunk
	for len(f.bodies) < shards {
		s := len(f.bodies)
		f.bodies = append(f.bodies, func() { f.shard(s) })
	}
	f.fn, f.n, f.chunk = fn, n, chunk
	f.wg.Add(shards)
	for s := 0; s < shards; s++ {
		go f.bodies[s]()
	}
	f.wg.Wait()
	f.fn = nil
	f.catch.Rethrow()
}

// shard is the body of worker s of the current Run.
func (f *Fanout) shard(s int) {
	defer f.wg.Done()
	defer f.catch.Recover(s)
	lo := s * f.chunk
	f.fn(s, lo, min(lo+f.chunk, f.n))
}

// InvariantError is the payload of a programmer-error panic: an internal
// contract (matching slice lengths, span bounds) was violated, so the
// package's in-memory state is untrustworthy. See the package comment for
// the no-silent-fallback rule.
type InvariantError struct {
	// Pkg names the package whose invariant broke, e.g. "spatialindex".
	Pkg string
	// Msg states the violated invariant, including the concrete values
	// (slice lengths, indices) that broke it.
	Msg string
}

// Error implements error.
func (e *InvariantError) Error() string {
	return e.Pkg + ": invariant violated: " + e.Msg
}

// Invariant builds the typed payload for an invariant-violation panic:
//
//	panic(panicsafe.Invariant("spatialindex", "len(xs)=%d len(ys)=%d", ...))
//
// Callers panic with the returned value rather than a bare string so
// recovery layers can recognize — and refuse to silently absorb — a
// corrupted-state report while still attaching trial coordinates to it.
func Invariant(pkg, format string, args ...any) *InvariantError {
	return &InvariantError{Pkg: pkg, Msg: fmt.Sprintf(format, args...)}
}
