package experiments

import (
	"fmt"
	"runtime/debug"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/core"
	"manhattanflood/internal/panicsafe"
	"manhattanflood/internal/sim"
)

// PanicError is a panic recovered from one Monte-Carlo trial, carrying
// everything needed to reproduce it: the experiment, the sweep-point index,
// the trial index, the trial's derived world seed, and the trial-runner
// worker it ran on. One poisoned trial fails its point with this
// diagnosable report; the rest of the sweep keeps running (see RunSweep).
type PanicError struct {
	// Experiment is the experiment or sweep identifier, e.g. "E03".
	Experiment string
	// Point is the sweep-point index within the experiment.
	Point int
	// Trial is the trial index within the point.
	Trial int
	// Seed is the trial's derived world seed — rerunning this exact
	// (experiment, point, trial) with this seed reproduces the panic
	// deterministically.
	Seed uint64
	// Shard is the trial-runner worker goroutine that executed the trial.
	Shard int
	// Value is the original panic value. Panics forwarded from inside the
	// tiled sweep, tiled index and parallel stepping workers arrive as
	// *panicsafe.ShardPanic, preserving the originating shard and stack.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error formats the one-line diagnosable report.
func (e *PanicError) Error() string {
	return fmt.Sprintf("experiments: trial panic: experiment=%s point=%d trial=%d seed=%#x shard=%d: %v",
		e.Experiment, e.Point, e.Trial, e.Seed, e.Shard, e.Value)
}

// Unwrap exposes the panic value when it is itself an error — a
// *panicsafe.ShardPanic from a worker shard, or a
// *panicsafe.InvariantError from a violated internal contract — so
// errors.As reaches the root cause through the trial wrapper.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// newPanicError wraps a recovered panic value with trial coordinates. The
// stack is the originating one when the panic crossed a shard boundary
// (panicsafe preserved it); otherwise it is captured here, where the
// panicking frames are still on the goroutine's stack.
func newPanicError(exp string, point, trial int, seed uint64, shard int, value any) *PanicError {
	stack := debug.Stack()
	if sp, ok := value.(*panicsafe.ShardPanic); ok && len(sp.Stack) > 0 {
		stack = sp.Stack
	}
	return &PanicError{Experiment: exp, Point: point, Trial: trial,
		Seed: seed, Shard: shard, Value: value, Stack: stack}
}

// trialSpec fingerprints the parameters of a flooding trial that its
// checkpoint Unit does not already capture, so a journal recorded under
// one configuration (say quick mode) can never satisfy a resume under
// another. Worker counts are deliberately excluded: results are
// bit-identical across them, so resuming with a different fan-out is
// legal.
func trialSpec(p sim.Params, maxSteps int, src sourceKind, withPartition bool) string {
	return fmt.Sprintf("n=%d L=%g R=%g V=%g max=%d src=%d part=%t",
		p.N, p.L, p.R, p.V, maxSteps, src, withPartition)
}

// checkpointResult converts a trial outcome into its durable form — all
// integer/bool fields, so the round trip through the journal is exact and
// a resumed aggregation is byte-identical to an uninterrupted one.
func checkpointResult(r core.Result) checkpoint.Result {
	return checkpoint.Result{
		Completed: r.Completed,
		Time:      r.Time,
		CZTime:    r.CZTime,
		SuburbLag: r.SuburbLag,
		Informed:  r.Informed,
		N:         r.N,
	}
}

// resultFromCheckpoint is the inverse of checkpointResult.
func resultFromCheckpoint(r checkpoint.Result) core.Result {
	return core.Result{
		Completed: r.Completed,
		Time:      r.Time,
		CZTime:    r.CZTime,
		SuburbLag: r.SuburbLag,
		Informed:  r.Informed,
		N:         r.N,
	}
}
