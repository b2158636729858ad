package kernel

import "manhattanflood/internal/panicsafe"

// Mask fills dst with the radius-test bitmask of a span of any length:
// bit k of dst (0 <= k < len(xs)) is set iff (xs[k]-px)^2 + (ys[k]-py)^2
// <= r2. It is MaskWord's multi-word form, kept for the tests: it runs
// the AVX2 kernel over whole spans, so the property and fuzz tests reach
// every lane count and tail shape of the assembly loop. The comparison
// is ordered, so lanes with NaN coordinates are misses. dst must hold at
// least Words(len(xs)) words; exactly that many are written, and bits at
// or beyond len(xs) in the final word are zero.
func Mask(dst []uint64, xs, ys []float64, px, py, r2 float64) {
	n := len(xs)
	if len(ys) != n {
		panic(panicsafe.Invariant("kernel", "coordinate spans disagree: len(xs)=%d len(ys)=%d", n, len(ys)))
	}
	d := dst[:Words(n)]
	clear(d)
	if n == 0 {
		return
	}
	maskInto(d, xs, ys, px, py, r2)
}

// maskGenericRange is the portable reference loop over a whole span: it
// ORs the hit bits of lanes [lo, hi) into dst. The explicit float64
// conversions forbid FMA contraction (see Hit).
func maskGenericRange(dst []uint64, xs, ys []float64, px, py, r2 float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		dx := xs[k] - px
		dy := ys[k] - py
		if float64(dx*dx)+float64(dy*dy) <= r2 {
			dst[uint(k)>>6] |= 1 << (uint(k) & 63)
		}
	}
}
