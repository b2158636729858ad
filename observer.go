package manhattan

import (
	"context"

	"manhattanflood/internal/core"
)

// StepView is the read-only per-step view handed to an attached Observer.
// The slices alias the simulation's live structure-of-arrays state — no
// copies are made — so they are valid only for the duration of the
// ObserveStep call: an observer that needs the data afterwards must copy
// it (the trace recorder encodes it straight into its output buffer).
//
// X and Y are always present and indexed by agent id. Informed and
// NewlyInformed are populated only for steps driven by Simulation.Flood;
// for plain Step, FloodTree and RunProtocol they are nil and the view
// carries positions only.
type StepView struct {
	// Step is the world time after the observed step completed. The first
	// view of a Flood run is the run-start frame: the world time before
	// any flood step, with NewlyInformed holding exactly the source.
	Step int
	// X and Y are the live position columns, indexed by agent id.
	X, Y []float64
	// Informed is the live informed-flags slice (nil outside Flood).
	Informed []bool
	// NewlyInformed holds the ids informed during this step, in the
	// deterministic discovery order (bucket-major sweep hits, then
	// chained BFS order when within-step chaining is enabled). Nil
	// outside Flood.
	NewlyInformed []int32
}

// Observer receives a StepView after every completed simulation step while
// attached. Every entry point that steps the simulation emits through it:
// Step once per call, and Flood, FloodTree and RunProtocol once per step
// of their run, at the step boundary. Returning a non-nil error stops
// observation. A run — Flood, FloodTree or RunProtocol — stops at that
// step boundary and returns the error with its partial result. Plain Step
// has no result to return it with, so the error is sticky there: Step
// emits nothing more, and ObserverErr reports the error, until the next
// Attach.
//
// Observers run synchronously on the stepping goroutine and must not
// mutate the simulation or retain the view's slices.
type Observer interface {
	ObserveStep(v StepView) error
}

// Attach installs o as the simulation's observer, replacing any previous
// one (at most one observer is attached; compose fan-out externally) and
// clearing any sticky observer error. Attach(nil) is Detach.
//
// While attached, the observer sees every step: plain Step and the
// protocol entry points emit position-only views; Flood emits full views
// with the informed set and the step's newly informed ids. This is the
// public seam the trace recorder (NewRecorder) plugs into.
func (s *Simulation) Attach(o Observer) {
	s.obs = o
	s.obsErr = nil
}

// Detach removes the current observer (if any) and returns it. The sticky
// observer error, if one occurred, stays readable via ObserverErr until
// the next Attach.
func (s *Simulation) Detach() Observer {
	o := s.obs
	s.obs = nil
	return o
}

// ObserverErr returns the sticky error of an ObserveStep failure during
// plain Step, or nil. Runs return their observer's error directly, and it
// is not sticky.
func (s *Simulation) ObserverErr() error { return s.obsErr }

// Step advances the world one time unit and emits a position-only view to
// the attached observer, unless an earlier Step's view failed.
func (s *Simulation) Step() {
	s.w.Step()
	if s.obsErr == nil {
		s.obsErr = s.emit(nil)
	}
}

// run is the loop behind Flood, FloodTree and RunProtocol: it steps p
// under core.Run and, after every step, appends f's informed count to
// series when series is non-nil and emits the attached observer's view.
// The view carries f's informed set when f is non-nil, positions only
// otherwise. An observer error stops the run at that step boundary.
func (s *Simulation) run(ctx context.Context, p core.Process, maxSteps int, f *core.Flooding, series *[]int) error {
	return core.Run(ctx, p, maxSteps, func() error {
		if series != nil {
			*series = append(*series, f.InformedCount())
		}
		return s.emit(f)
	})
}

// emit hands the attached observer the view of the current step: the
// positions, plus f's informed set and fresh ids when f is non-nil.
func (s *Simulation) emit(f *core.Flooding) error {
	if s.obs == nil {
		return nil
	}
	v := StepView{Step: s.w.Time(), X: s.w.X(), Y: s.w.Y()}
	if f != nil {
		v.Informed, v.NewlyInformed = f.Informed(), f.LastStepNewlyInformed()
	}
	return s.obs.ObserveStep(v)
}
