package core

import (
	"context"
	"fmt"
)

// Process is a dissemination process stepped in synchronous time units:
// Flooding, TreeFlooding, ParsimoniousFlooding, KGossip and Lanes. Step
// advances the world one unit and runs one round — a Flooding round for
// all but KGossip, which rescans — returning how many agents it informed;
// Done reports that every agent is informed.
type Process interface {
	Step() int
	Done() bool
}

// Run is the one budgeted step loop: it steps p until p is done or
// maxSteps steps have run, and calls after, when non-nil, after every
// step. The context is checked once per step, at the step boundary and
// never inside a round, so the zero-allocation sweep loops stay
// untouched; a nil context never cancels. Run returns the context's
// error, or after's, at the boundary where it stopped: the process is
// then consistent (every step it took has fully happened) and can be run
// on. A negative budget is an error.
func Run(ctx context.Context, p Process, maxSteps int, after func() error) error {
	if maxSteps < 0 {
		return fmt.Errorf("core: negative step budget %d", maxSteps)
	}
	for s := 0; s < maxSteps && !p.Done(); s++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		p.Step()
		if after != nil {
			if err := after(); err != nil {
				return err
			}
		}
	}
	return nil
}
