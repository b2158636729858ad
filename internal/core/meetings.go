package core

import (
	"fmt"
	"math"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/kernel"
	"manhattanflood/internal/sim"
)

// MeetingReport measures the mechanism behind Lemma 16: every agent
// lingering in the (Extended) Suburb is met — within (3/4)R, the paper's
// meeting radius — by some agent coming from the Central Zone, within
// O(S/v) time. The report records, for each agent outside the Central Zone
// at time 0, the first step at which it meets any agent that was inside
// the Central Zone at time 0.
type MeetingReport struct {
	// SuburbAgents is how many agents started outside the Central Zone.
	SuburbAgents int
	// Met is how many of them met a Central-Zone agent within the budget.
	Met int
	// MeetingTimes are the first-meeting steps for the agents that met.
	MeetingTimes []int
	// MaxTime and MeanTime summarize MeetingTimes (0 when none met).
	MaxTime  int
	MeanTime float64
	// Budget is the step budget that was used.
	Budget int
}

// MeasureMeetings advances the world up to maxSteps steps and records the
// Lemma 16 meeting times. The world is consumed (stepped) by the call.
func MeasureMeetings(w *sim.World, part *cells.Partition, maxSteps int) (MeetingReport, error) {
	if w == nil {
		return MeetingReport{}, fmt.Errorf("core: nil world")
	}
	if part == nil {
		return MeetingReport{}, fmt.Errorf("core: nil partition")
	}
	if maxSteps < 0 {
		return MeetingReport{}, fmt.Errorf("core: negative step budget %d", maxSteps)
	}
	rep := MeetingReport{Budget: maxSteps}

	// Classify agents at time 0.
	fromCZ := make([]bool, w.N())
	var suburb []int32
	for i := 0; i < w.N(); i++ {
		if part.IsCentralPoint(w.Position(i)) {
			fromCZ[i] = true
		} else {
			suburb = append(suburb, int32(i))
		}
	}
	rep.SuburbAgents = len(suburb)
	if len(suburb) == 0 {
		return rep, nil
	}

	meetR := MeetingRadius(w.Params().R)
	meetR2 := meetR * meetR
	met := make([]bool, w.N())
	remaining := len(suburb)

	var czBits []uint64
	check := func(step int) {
		ix := w.Index()
		xs, ys := ix.XS(), ix.YS()
		ids, cxs, cys := ix.CSR()
		// From-Central-Zone bitmap by CSR position (the membership is
		// fixed at time 0, the positions are not): the kernel filter for
		// the meeting test below. The neighbor index radius is
		// R >= (3/4)R, so the block spans cover the meeting distance;
		// the kernel masks with meetR2 directly. A suburb agent is never
		// fromCZ, so the j != i exclusion is implied by the filter.
		nw := kernel.Words(len(ids))
		if cap(czBits) < nw {
			czBits = make([]uint64, nw)
		}
		czBits = czBits[:nw]
		clear(czBits)
		for k, id := range ids {
			if fromCZ[id] {
				czBits[k>>6] |= 1 << (uint(k) & 63)
			}
		}
		for _, i := range suburb {
			if met[i] {
				continue
			}
			px, py := xs[i], ys[i]
			found := false
			x0, x1, y0, y1 := ix.BlockBoundsXY(px, py)
			for by := y0; by <= y1 && !found; by++ {
				lo, hi := ix.RowSpanBounds(by, x0, x1)
				if lo >= hi {
					continue
				}
				found = kernel.AnyHit(cxs[lo:hi], cys[lo:hi], px, py, meetR2, czBits, int(lo))
			}
			if found {
				met[i] = true
				remaining--
				rep.MeetingTimes = append(rep.MeetingTimes, step)
			}
		}
	}

	check(0)
	t0 := w.Time()
	watch := worldUntil{w: w, done: func() bool { return remaining == 0 }}
	if err := Run(nil, watch, maxSteps, func() error {
		check(w.Time() - t0)
		return nil
	}); err != nil {
		return rep, err
	}
	rep.Met = len(rep.MeetingTimes)
	var sum float64
	for _, t := range rep.MeetingTimes {
		sum += float64(t)
		if t > rep.MaxTime {
			rep.MaxTime = t
		}
	}
	if rep.Met > 0 {
		rep.MeanTime = sum / float64(rep.Met)
	}
	return rep, nil
}

// worldUntil is a bare world as a Process: Step advances it, and it is
// done when done reports so.
type worldUntil struct {
	w    *sim.World
	done func() bool
}

func (p worldUntil) Step() int  { p.w.Step(); return 0 }
func (p worldUntil) Done() bool { return p.done() }

// Lemma16Budget returns the paper's meeting-time budget 590 S / v for the
// given partition and speed.
func Lemma16Budget(part *cells.Partition, v float64) float64 {
	if v <= 0 {
		return math.Inf(1)
	}
	return 590 * part.SuburbDiameterS() / v
}
