// Package dist implements the closed-form stationary laws of the Manhattan
// Random Way-Point model that the paper's analysis rests on:
//
//   - Theorem 1: the stationary spatial density over the square,
//     f(x, y) = 3 [ u(1-u) + w(1-w) ] / L^2 with u = x/L, w = y/L —
//     maximal (3/2 uniform) at the center, zero at the corners;
//   - the Palm (length-biased) trip law used for *perfect simulation*: a
//     stationary snapshot of an agent is a trip drawn with probability
//     proportional to its Manhattan length together with a uniform position
//     along it;
//   - Theorem 2: the destination law of an agent observed at a stationary
//     position — an atomic "cross" component of total mass exactly 1/2
//     (agents on their final leg, destination aligned with the position)
//     plus four uniform quadrant components (agents on their first leg).
//
// Everything here is exact (no Monte-Carlo); the samplers invert or
// decompose the closed forms directly, so agents initialized from this
// package are stationary at time zero.
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

func validSide(l float64) error {
	if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
		return fmt.Errorf("dist: side must be positive and finite, got %v", l)
	}
	return nil
}

// Float64 returns a uniform float64 in [0, 1) drawn from src. It computes
// exactly what (*rand.Rand).Float64 computes for a Rand wrapping src, so a
// caller that holds a bare rand.Source (a PCG stored by value, say) draws
// the same stream, bit for bit, as one that wraps it in a rand.Rand.
func Float64(src rand.Source) float64 { return unit(draw53(src)) }
