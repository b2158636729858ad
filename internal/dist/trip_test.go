package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/geom"
)

// sampleBranchy is TripSampler.Sample written with one branch per choice:
// the reference the branch-free Sample must reproduce bit for bit.
func sampleBranchy(ts TripSampler, src rand.Source) Trip {
	var sx, dx, sy, dy float64
	if Float64(src) < 0.5 {
		sx, dx = biasedPairBranchy(src, ts.l)
		sy, dy = Float64(src)*ts.l, Float64(src)*ts.l
	} else {
		sy, dy = biasedPairBranchy(src, ts.l)
		sx, dx = Float64(src)*ts.l, Float64(src)*ts.l
	}
	order := geom.VerticalFirst
	if Float64(src) < 0.5 {
		order = geom.HorizontalFirst
	}
	path := geom.NewLPath(geom.Pt(sx, sy), geom.Pt(dx, dy), order)
	return Trip{Path: path, Travelled: Float64(src) * path.Length()}
}

// biasedPairBranchy returns (a, b) on [0, l]^2 with joint density
// proportional to |a - b|: the extremes of three independent uniforms,
// randomly ordered.
func biasedPairBranchy(src rand.Source, l float64) (a, b float64) {
	u1, u2, u3 := Float64(src), Float64(src), Float64(src)
	lo, hi := min(u1, u2, u3), max(u1, u2, u3)
	if Float64(src) < 0.5 {
		return l * lo, l * hi
	}
	return l * hi, l * lo
}

// scriptSource replays a fixed list of draws, then zeros.
type scriptSource struct {
	draws []uint64
	next  int
}

func (s *scriptSource) Uint64() uint64 {
	s.next++
	if s.next > len(s.draws) {
		return 0
	}
	return s.draws[s.next-1]
}

// gridSource is a rand.Source whose draws are mostly multiples of 1/8, so
// that the uniforms of a trip keep tying with each other and with 1/2;
// one draw in four is an arbitrary 64-bit value.
type gridSource struct{ state uint64 }

func (g *gridSource) Uint64() uint64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	if g.state>>62 == 0 {
		return g.state
	}
	return (g.state >> 59 & 7) << 50 // Float64 = k/8
}

// sameTrip reports whether a and b agree bit for bit.
func sameTrip(a, b Trip) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Path.Order == b.Path.Order &&
		eq(a.Path.Src.X, b.Path.Src.X) && eq(a.Path.Src.Y, b.Path.Src.Y) &&
		eq(a.Path.Dst.X, b.Path.Dst.X) && eq(a.Path.Dst.Y, b.Path.Dst.Y) &&
		eq(a.Travelled, b.Travelled)
}

// checkSample draws one trip from draws with Sample and with
// sampleBranchy and fails unless the trips agree bit for bit and both
// consumed exactly nine draws.
func checkSample(t *testing.T, l float64, draws []uint64) {
	t.Helper()
	ts, err := NewTripSampler(l)
	if err != nil {
		t.Fatal(err)
	}
	got, want := &scriptSource{draws: draws}, &scriptSource{draws: draws}
	g, w := ts.Sample(got), sampleBranchy(ts, want)
	if !sameTrip(g, w) || got.next != 9 || want.next != 9 {
		t.Fatalf("l=%v draws %#x:\nSample        %+v (%d draws)\nsampleBranchy %+v (%d draws)",
			l, draws, g, got.next, w, want.next)
	}
}

// u returns the raw draw that Float64 maps to k/8.
func u(k uint64) uint64 { return k << 50 }

// TestSampleMatchesBranchy holds the branch-free Sample to its branchy
// reference on the draws where the selects could go wrong: every uniform
// at 0 or exactly 1/2 (the threshold of each choice), three tied uniforms
// in the biased pair, Src == Dst, and the largest uniform below 1, where
// the position rounds up to the path's length. Tie-heavy random streams
// and arbitrary ones cover the rest.
func TestSampleMatchesBranchy(t *testing.T) {
	const top = 1<<53 - 1 // the largest Float64 below 1
	cases := [][]uint64{
		// All zero: Src == Dst == (0, 0).
		{0, 0, 0, 0, 0, 0, 0, 0, 0},
		// Every uniform exactly 1/2.
		{u(4), u(4), u(4), u(4), u(4), u(4), u(4), u(4), u(4)},
		// u1 == u2 == u3 and equal free coordinates: Src == Dst.
		{u(4), u(2), u(2), u(2), u(4), u(2), u(2), u(4), u(4)},
		// x axis, (lo, hi), horizontal first, d rounding up to the length.
		{0, u(1), u(7), u(3), 0, u(5), u(5), 0, top},
		// y axis, (hi, lo), vertical first.
		{u(4), u(7), u(1), u(3), u(4), u(2), u(6), u(4), top},
		// Two of three tied; a zero-length vertical leg.
		{0, u(3), u(3), u(6), u(4), u(1), u(1), 0, u(4)},
		// y axis, ties at the max, d = 0.
		{u(5), u(6), u(2), u(6), 0, u(3), u(7), u(6), 0},
		// Every uniform at its largest.
		{top, top, top, top, top, top, top, top, top},
		// Just below every threshold.
		{u(4) - 1, 1, 2, 3, u(4) - 1, 4, 5, u(4) - 1, u(4) - 1},
		// High bits that Float64 drops.
		{1<<63 | 5, 1<<63 | u(4), 7 << 61, ^uint64(0), 1<<62 | u(4) - 1, 3, 1<<60 | u(4), 1<<55 | 9, ^uint64(0)},
	}
	for _, l := range []float64{1, 4, math.Sqrt(2000), 0.1} {
		for _, c := range cases {
			checkSample(t, l, c)
		}
		for seed := uint64(0); seed < 2000; seed++ {
			g := &gridSource{state: seed}
			draws := make([]uint64, 9)
			for k := range draws {
				draws[k] = g.Uint64()
			}
			checkSample(t, l, draws)
		}
	}
}

// FuzzTripSample holds the branch-free Sample to sampleBranchy on nine
// arbitrary draws.
func FuzzTripSample(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(u(4), u(4), u(4), u(4), u(4), u(4), u(4), u(4), u(4))
	f.Add(uint64(0), u(1), u(7), u(3), uint64(0), u(5), u(5), uint64(0), uint64(1<<53-1))
	f.Add(u(4), u(7), u(1), u(3), u(4), u(2), u(6), u(4), uint64(1<<53-1))
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, a5, a6, a7, a8 uint64) {
		checkSample(t, 3.5, []uint64{a0, a1, a2, a3, a4, a5, a6, a7, a8})
	})
}
