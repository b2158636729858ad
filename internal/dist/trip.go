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
//
// The nine uniforms are drawn in a fixed order: the biased axis, the three
// uniforms of the biased pair, the pair's order, the two unbiased
// coordinates (source first), the leg order and the position along the
// path. Each of the first eight is kept as the 53-bit integer k that
// Float64 divides by 2^53. That division is exact and monotone, so k < 2^52
// is exactly u < 0.5, and min, max and every either-or choice are taken on
// the integers, with masks rather than branches: each of those choices goes
// either way half the time, so no branch predictor can learn them.
func (ts TripSampler) Sample(src rand.Source) Trip {
	axis := draw53(src)
	u1, u2, u3 := draw53(src), draw53(src), draw53(src)
	swap := draw53(src)
	free1, free2 := draw53(src), draw53(src)
	leg := draw53(src)

	// (a, b) is the biased pair: (lo, hi) when swap < 1/2, else (hi, lo).
	lo, hi := min(u1, u2, u3), max(u1, u2, u3)
	a := hi ^ (lo^hi)&below(swap)
	b := lo ^ hi ^ a
	// The pair lies on the x axis when axis < 1/2, else on the y axis; the
	// other axis takes the two unbiased coordinates.
	onX := below(axis)
	sx := free1 ^ (a^free1)&onX
	dx := free2 ^ (b^free2)&onX
	sy := a ^ free1 ^ sx
	dy := b ^ free2 ^ dx
	// HorizontalFirst when leg < 1/2, else VerticalFirst.
	order := geom.HorizontalFirst - geom.LegOrder(leg>>52)

	l := ts.l
	from := geom.Point{X: unit(sx) * l, Y: unit(sy) * l}
	to := geom.Point{X: unit(dx) * l, Y: unit(dy) * l}
	d := Float64(src) * from.ManhattanDist(to)
	return Trip{Path: geom.LPath{Src: from, Dst: to, Order: order}, Travelled: d}
}

// draw53 returns the 53 random bits Float64 scales into [0, 1).
func draw53(src rand.Source) uint64 { return src.Uint64() << 11 >> 11 }

// unit scales a draw53 value into [0, 1) exactly as Float64 does.
func unit(k uint64) float64 { return float64(k) / (1 << 53) }

// below returns all ones when the draw53 value k stands for a uniform
// below 1/2, else zero.
func below(k uint64) uint64 { return k>>52 - 1 }
