package dist

import (
	"math/rand/v2"

	"manhattanflood/internal/geom"
)

// Trip is a stationary (Palm) snapshot of one MRWP agent: the L-path it is
// travelling and the distance already covered along it.
type Trip struct {
	Path      geom.LPath
	Travelled float64
}

// Pos returns the agent's position on the path.
func (t Trip) Pos() geom.Point { return t.Path.At(t.Travelled) }

// TripSampler draws stationary trip snapshots by the Palm calculus: a trip
// (S, D) is selected with probability proportional to its Manhattan length
// |Sx-Dx| + |Sy-Dy|, the leg order is uniform, and the position is uniform
// along the path. Initializing every agent from one sample is *perfect
// simulation* — the system is exactly stationary at time zero (the package
// tests verify the position marginal equals Theorem 1).
type TripSampler struct {
	l float64
}

// NewTripSampler creates the Palm trip law for a square of side l.
func NewTripSampler(l float64) (TripSampler, error) {
	if err := validSide(l); err != nil {
		return TripSampler{}, err
	}
	return TripSampler{l: l}, nil
}

// Side returns the square side L.
func (ts TripSampler) Side() float64 { return ts.l }

// Sample draws one stationary trip snapshot.
//
// Length-biasing by |Sx-Dx| + |Sy-Dy| is the even mixture (the two
// coordinate legs have equal mean L/3) of biasing by the horizontal leg
// alone and by the vertical leg alone. A coordinate pair biased by its
// separation |a-b| is the (min, max) of three independent uniforms with the
// middle one discarded (their joint density is 6(b-a)/L^3), in random
// order; the unbiased coordinates stay uniform.
func (ts TripSampler) Sample(src rand.Source) Trip {
	var sx, dx, sy, dy float64
	if Float64(src) < 0.5 {
		sx, dx = biasedPair(src, ts.l)
		sy, dy = Float64(src)*ts.l, Float64(src)*ts.l
	} else {
		sy, dy = biasedPair(src, ts.l)
		sx, dx = Float64(src)*ts.l, Float64(src)*ts.l
	}
	order := geom.VerticalFirst
	if Float64(src) < 0.5 {
		order = geom.HorizontalFirst
	}
	path := geom.NewLPath(geom.Pt(sx, sy), geom.Pt(dx, dy), order)
	return Trip{Path: path, Travelled: Float64(src) * path.Length()}
}

// biasedPair returns (a, b) on [0, l]^2 with joint density proportional to
// |a - b|: the extremes of three independent uniforms, randomly ordered.
func biasedPair(src rand.Source, l float64) (a, b float64) {
	u1, u2, u3 := Float64(src), Float64(src), Float64(src)
	lo, hi := min(u1, u2, u3), max(u1, u2, u3)
	if Float64(src) < 0.5 {
		return l * lo, l * hi
	}
	return l * hi, l * lo
}
