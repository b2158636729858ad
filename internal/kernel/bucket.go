package kernel

import "manhattanflood/internal/panicsafe"

// This file is the grid-classify half of the kernel package: the
// bucketOfXY operation that maps a point to its uniform-grid bucket,
// batched over the simulator's flat coordinate slices. It is the fused
// second stage of the SoA world step (advance -> classify -> emit): the
// mobility layer writes positions into flat X/Y arrays, Buckets turns
// those arrays into bucket ids in one streaming pass, and the spatial
// index ingests the precomputed ids without re-deriving them per point.
//
// # Semantics
//
// A coordinate v maps to grid column clamp(trunc(v*invR), 0, cols-1),
// with the clamp performed in the float domain BEFORE the truncating
// conversion:
//
//	f := v * invR
//	if !(f > 0)    -> 0        // negatives, -0, +0 and NaN
//	if !(f < cols-1) -> cols-1 // the top column, +Inf and overflow
//	otherwise      -> int32(f) // plain truncation toward zero
//
// Clamping first is what makes the operation exactly vectorizable: the
// scalar ordered comparisons are VMAXPD/VMINPD (whose NaN rule — return
// the second operand — implements the !(f > 0) branch for free), and the
// remaining conversion always sees a value in [0, cols-1], where
// CVTTPD2DQ and Go's int32() agree bit-for-bit.
//
// This matches the historical clampCol(int(v*invR)) formula for every
// coordinate with f < 2^63 — in particular all of [0, side], which the
// mobility layer guarantees — plus NaN, -Inf and negative overflow.
// The one deliberate divergence: +Inf and positive overflow now land in
// the TOP column, where the legacy formula's int conversion collapsed
// them to implementation-defined garbage (INT64_MIN on amd64, hence
// column 0 after clamping — saturation on arm64 would have disagreed).
// The clamped definition is platform-independent; spatialindex routes
// every classify path through this kernel so the whole tree shares it.

// BucketCoord returns the grid column of coordinate v for a grid with
// the given inverse bucket side and column count: clamp(trunc(v*invR),
// 0, cols-1), NaN mapping to column 0. cols must be >= 1.
func BucketCoord(v, invR float64, cols int32) int32 {
	return bucketCoord(v, invR, float64(cols-1))
}

// bucketCoord is the shared scalar reference: the float-domain clamp
// followed by a truncating conversion, with cm1 = float64(cols-1)
// hoisted by batched callers. The assembly path must be bit-identical
// to this function on every input.
func bucketCoord(v, invR, cm1 float64) int32 {
	f := v * invR
	if !(f > 0) { // negatives, zero and NaN -> column 0 (MAXPD rule)
		return 0
	}
	if !(f < cm1) { // top column, +Inf and overflow (MINPD rule)
		return int32(cm1)
	}
	return int32(f) // 0 < f < cols-1: truncation, exactly CVTTPD2DQ
}

// BucketOf returns the row-major bucket id of (x, y): BucketCoord(y) *
// cols + BucketCoord(x). This is the scalar form of the classify kernel;
// spatialindex.Index routes every single-point classification through it
// so the scalar and batched paths share one definition.
func BucketOf(x, y, invR float64, cols int32) int32 {
	cm1 := float64(cols - 1)
	return bucketCoord(y, invR, cm1)*cols + bucketCoord(x, invR, cm1)
}

// Buckets fills dst[k] with BucketOf(xs[k], ys[k], invR, cols) for every
// lane of the span — the batched classify pass of the SoA world step.
// dst must hold at least len(xs) entries; exactly that many are written.
// Like MaskWord it dispatches to the AVX2 implementation on capable amd64
// hosts (2 multiplies, 4 ordered min/max clamps, 2 truncating converts
// and one integer multiply-add per lane) and to the pure-Go reference
// loop elsewhere, under `-tags purego`, or after a GODEBUG=mfkernel=
// generic downgrade; both produce bit-identical ids on every input.
func Buckets(dst []int32, xs, ys []float64, invR float64, cols int32) {
	n := len(xs)
	if len(ys) != n {
		// Programmer-error panic: never recovered into a silent fallback
		// (see panicsafe's package comment).
		panic(panicsafe.Invariant("kernel", "coordinate spans disagree: len(xs)=%d len(ys)=%d", n, len(ys)))
	}
	if len(dst) < n {
		panic(panicsafe.Invariant("kernel", "bucket destination too short: len(dst)=%d len(xs)=%d", len(dst), n))
	}
	if cols < 1 {
		panic(panicsafe.Invariant("kernel", "bucket grid needs at least one column, got %d", cols))
	}
	if n == 0 {
		return
	}
	bucketsInto(dst, xs, ys, invR, cols)
}

// bucketsGenericRange is the portable reference implementation of
// Buckets over lanes [lo, hi). Everything else — the assembly path
// included — must be bit-identical to this loop.
func bucketsGenericRange(dst []int32, xs, ys []float64, invR, cm1 float64, cols int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		dst[k] = bucketCoord(ys[k], invR, cm1)*cols + bucketCoord(xs[k], invR, cm1)
	}
}
