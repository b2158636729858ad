package core

import (
	"fmt"
	"runtime/debug"

	"manhattanflood/internal/panicsafe"
	"manhattanflood/internal/sim"
)

// Lanes floods one world at several radii at once: the radius lanes of
// one trial of an r-sweep. R enters a world only through its neighbor
// index, so floods at different radii from one seed see one trajectory.
// Lanes steps that trajectory once per time unit and then gives every
// unfinished lane its transmission round (Flooding.Round) over the lane's
// own index — the world's own, or one bound at the lane's radius
// (sim.World.BindIndex, OnIndex). A finished lane costs nothing: it gets
// no round, and its bound index is released, so the world stops syncing
// it until the next Reset.
//
// Each lane's Result is bit-identical to Flooding.Run of the same flood
// on a world of its own: the lane sees the same positions at every step,
// and finishes at the step its own run would.
//
// The floods handed to NewLanes belong to it: their Step and Run refuse,
// so no lane can step the shared world a second time in one step.
type Lanes struct {
	w        *sim.World
	floods   []*Flooding
	state    []laneState
	res      []Result    // a done lane's result, taken at the step it finished
	panics   []lanePanic // a failed lane's recovered panic
	running  int
	deadline int
}

// laneState is where a lane stands in the current trial.
type laneState uint8

const (
	laneIdle    laneState = iota // sits the trial out
	laneRunning                  // gets a round every step
	laneDone                     // every agent informed
	laneFailed                   // its round panicked
)

// lanePanic is a panic recovered from one lane's round.
type lanePanic struct {
	value any
	stack []byte
}

// NewLanes returns the lanes of floods, all over w. The lanes start idle;
// Start arms them for a trial.
func NewLanes(w *sim.World, floods []*Flooding) (*Lanes, error) {
	for i, f := range floods {
		if f == nil || f.w != w {
			return nil, fmt.Errorf("core: lane %d does not flood the lanes' world", i)
		}
	}
	for _, f := range floods {
		f.shared = true
	}
	n := len(floods)
	return &Lanes{
		w:      w,
		floods: append([]*Flooding(nil), floods...),
		state:  make([]laneState, n),
		res:    make([]Result, n),
		panics: make([]lanePanic, n),
	}, nil
}

// Start arms the lanes for one trial of at most maxSteps world steps:
// lane i runs if run[i] is set, and otherwise sits the trial out with its
// bound index released. Call it after World.Reset (which rebuilds and
// re-arms every bound index) and after resetting the running lanes'
// floods. A lane that is already done finishes at once.
func (l *Lanes) Start(maxSteps int, run []bool) error {
	if maxSteps < 0 {
		return fmt.Errorf("core: negative step budget %d", maxSteps)
	}
	if len(run) != len(l.floods) {
		return fmt.Errorf("core: %d run flags for %d lanes", len(run), len(l.floods))
	}
	l.deadline = l.w.Time() + maxSteps
	l.running = 0
	for i, f := range l.floods {
		l.panics[i] = lanePanic{}
		l.state[i] = laneIdle
		if !run[i] {
			l.release(i)
			continue
		}
		l.state[i] = laneRunning
		l.running++
		if f.Done() {
			l.finish(i)
		}
	}
	return nil
}

// Due reports whether another Step is due: some lane still runs and the
// step budget is not spent.
func (l *Lanes) Due() bool { return l.running > 0 && l.w.Time() < l.deadline }

// Step advances the world one time unit and gives every running lane its
// round. A panic in a lane's round stops that lane alone (Panic reports
// it); a panic in the world step propagates to the caller and leaves the
// lanes unusable until the next Start.
func (l *Lanes) Step() {
	l.w.Step()
	for i, st := range l.state {
		if st == laneRunning {
			l.round(i)
		}
	}
}

// round runs lane i's round, recovering a panic into the lane's report.
func (l *Lanes) round(i int) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if sp, ok := r.(*panicsafe.ShardPanic); ok && len(sp.Stack) > 0 {
				stack = sp.Stack
			}
			l.panics[i] = lanePanic{value: r, stack: stack}
			l.state[i] = laneFailed
			l.running--
			l.release(i)
		}
	}()
	f := l.floods[i]
	f.Round()
	if f.Done() {
		l.finish(i)
	}
}

// finish records running lane i as done at the current step.
func (l *Lanes) finish(i int) {
	l.res[i] = l.floods[i].Result()
	l.state[i] = laneDone
	l.running--
	l.release(i)
}

// release stops the world syncing lane i's bound index, if it has one.
func (l *Lanes) release(i int) {
	if ix := l.floods[i].ix; ix != nil {
		l.w.ReleaseIndex(ix)
	}
}

// Result returns the result of lane i, which ran this trial without a
// panic: a done lane's at the step it finished, a running lane's at the
// world's current time (once the budget is spent, the truncated run's).
func (l *Lanes) Result(i int) Result {
	if l.state[i] == laneDone {
		return l.res[i]
	}
	return l.floods[i].Result()
}

// Panic returns the value and stack of the panic that stopped lane i this
// trial, or a nil value if its rounds did not panic.
func (l *Lanes) Panic(i int) (value any, stack []byte) {
	return l.panics[i].value, l.panics[i].stack
}
