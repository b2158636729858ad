// Package kernel holds the engine's batched loops over flat float64
// columns, each a portable Go reference plus an amd64 assembly path:
//
//   - the fixed-radius test over the spatial index's CSR coordinate
//     spans (MaskWord, AnyHit, VisitHits). Every consumer that asks "is
//     point j within radius R of point i" — the flooding sweep, the
//     within-step chaining closure, the infection tree, the meeting
//     detector, the protocol variants, and the disk graph — asks it
//     through this package;
//   - the uniform-grid classify (Buckets, bucket.go);
//   - the trace writer's delta-column encode (PutDeltaVarints,
//     varint.go).
//
// # The radius test
//
// MaskWord consumes one CSR row span of at most 64 lanes (two flat
// float64 coordinate streams, a query point and a squared radius) and
// produces a hit bitmask: bit k is set iff (xs[k]-px)^2 + (ys[k]-py)^2
// <= r2. Consumers fold that mask against a per-position state bitmap
// (informed, uninformed, active, from-Central-Zone...) with WindowAt, or
// use the AnyHit/VisitHits conveniences that fuse the mask computation,
// the fold and the bit iteration over spans of any length without any
// heap scratch.
//
// # Implementation selection and the bit-identity invariant
//
// The portable pure-Go loop (maskWordGeneric) is the reference
// implementation and the only one on non-amd64 targets and under the
// `purego` build tag. On amd64 without that tag, an AVX2 assembly kernel
// is selected at runtime by CPUID feature detection (AVX2 plus
// OS-enabled YMM state). The assembly performs the same IEEE-754 float64
// operations in the same order — subtract, multiply, add, ordered
// compare, four lanes at a time, and deliberately **no FMA** — so its
// mask is bit-identical to the reference on every input, including NaN
// and infinite coordinates and distances exactly equal to r2. Nothing
// downstream needs to know which path ran; property and fuzz tests pin
// the equivalence. The classify and delta-encode kernels keep the same
// contract with their own references; the delta encode's assembly also
// needs BMI2 and LZCNT and a CPU whose PDEP is not microcoded.
//
// Setting `GODEBUG=mfkernel=generic` (or building with `-tags purego`)
// forces the reference paths; SetGeneric flips them at runtime for
// tests.
//
// # Adaptive folding
//
// AnyHit and VisitHits consult the filter bitmap before computing a
// mask: a span window whose filter bits are all zero is skipped without
// any floating-point work (the flooding sweep's "no transmitter in this
// row" fast path), a window with only a few set bits is tested lane by
// lane with the scalar Hit, and only dense windows pay for the vector
// mask. All three routes evaluate the identical predicate, so results do
// not depend on the route taken.
package kernel

import "math/bits"

// sparsePerWord is the adaptive cutoff of the filtered helpers: below
// this many candidate bits per 64-lane window the per-set-bit scalar
// test is cheaper than computing the whole window's vector mask.
const sparsePerWord = 8

// Words returns the number of uint64 mask words covering n span lanes.
func Words(n int) int { return (n + 63) >> 6 }

// Hit is the scalar one-point radius test, performing exactly the
// arithmetic the batched MaskWord performs per lane: (x-px)^2 + (y-py)^2 <=
// r2 in float64, no FMA contraction. The explicit float64 conversions
// force the intermediate rounding the Go spec otherwise lets a compiler
// fuse away (gc emits FMA for bare x*y + z on arm64 and friends), so
// the reference predicate is the same on every architecture.
func Hit(x, y, px, py, r2 float64) bool {
	dx := x - px
	dy := y - py
	return float64(dx*dx)+float64(dy*dy) <= r2
}

// maskWordGeneric is the reference for MaskWord: the hit bits of lanes
// [lo, len(xs)) ORed into w. Explicit conversions forbid FMA
// contraction, as everywhere in this package.
func maskWordGeneric(w uint64, xs, ys []float64, px, py, r2 float64, lo int) uint64 {
	for k := lo; k < len(xs); k++ {
		dx := xs[k] - px
		dy := ys[k] - py
		if float64(dx*dx)+float64(dy*dy) <= r2 {
			w |= 1 << uint(k)
		}
	}
	return w
}

// WindowAt returns the 64 bits of the bitmap starting at absolute bit
// position bit, padding with zeros past the bitmap's end — the shifted
// view that aligns an absolute per-CSR-position bitmap with a mask
// computed over a span starting at that position. bit must be in
// [0, 64*len(bm)).
func WindowAt(bm []uint64, bit int) uint64 {
	w := bit >> 6
	s := uint(bit) & 63
	v := bm[w] >> s
	if s != 0 && w+1 < len(bm) {
		v |= bm[w+1] << (64 - s)
	}
	return v
}

// AnyHit reports whether any span lane k passes the radius test and,
// when filter is non-nil, has bit base+k set in filter — "does this
// candidate hear any transmitter in the row span", with filter selecting
// who transmits. base is the span's absolute position in filter's bit
// space; filter must cover every position the span maps to. The span is
// walked in 64-lane windows: a window with no filter bit costs one load,
// a sparse window is tested lane by lane, a dense window pays one
// MaskWord folded with a single AND — and no heap or stack mask buffer
// is ever touched.
func AnyHit(xs, ys []float64, px, py, r2 float64, filter []uint64, base int) bool {
	n := len(xs)
	for c := 0; c < n; c += 64 {
		cn := n - c
		if cn > 64 {
			cn = 64
		}
		if filter == nil {
			if MaskWord(xs[c:c+cn], ys[c:c+cn], px, py, r2) != 0 {
				return true
			}
			continue
		}
		w := WindowAt(filter, base+c)
		if cn < 64 {
			w &= 1<<uint(cn) - 1
		}
		if w == 0 {
			continue
		}
		if bits.OnesCount64(w) < sparsePerWord {
			for w != 0 {
				k := c + bits.TrailingZeros64(w)
				w &= w - 1
				if Hit(xs[k], ys[k], px, py, r2) {
					return true
				}
			}
			continue
		}
		if MaskWord(xs[c:c+cn], ys[c:c+cn], px, py, r2)&w != 0 {
			return true
		}
	}
	return false
}

// VisitHits calls visit(base+k), in ascending k, for every span lane k
// that passes the radius test and (when filter is non-nil) has bit
// base+k set in filter. Iteration stops when visit returns false; the
// return value reports whether the span was visited to the end. visit
// receives absolute filter-bit positions (pass base 0 for span-relative
// ones). visit may clear filter bits at or below the position it was
// called with; each 64-lane window is snapshotted before its hits are
// delivered, so the iteration never observes its own clears.
func VisitHits(xs, ys []float64, px, py, r2 float64, filter []uint64, base int, visit func(pos int) bool) bool {
	n := len(xs)
	for c := 0; c < n; c += 64 {
		cn := n - c
		if cn > 64 {
			cn = 64
		}
		var w uint64
		if filter == nil {
			w = MaskWord(xs[c:c+cn], ys[c:c+cn], px, py, r2)
		} else {
			w = WindowAt(filter, base+c)
			if cn < 64 {
				w &= 1<<uint(cn) - 1
			}
			if w == 0 {
				continue
			}
			if bits.OnesCount64(w) < sparsePerWord {
				for w != 0 {
					k := c + bits.TrailingZeros64(w)
					w &= w - 1
					if Hit(xs[k], ys[k], px, py, r2) && !visit(base+k) {
						return false
					}
				}
				continue
			}
			w &= MaskWord(xs[c:c+cn], ys[c:c+cn], px, py, r2)
		}
		for w != 0 {
			k := c + bits.TrailingZeros64(w)
			w &= w - 1
			if !visit(base + k) {
				return false
			}
		}
	}
	return true
}
