//go:build !amd64 || purego

package kernel

import "manhattanflood/internal/panicsafe"

// MaskWord returns the radius-test bitmask of a span of at most 64
// lanes as a single word; bit k (k < len(xs)) is set iff lane k is
// within r2 of (px, py). On this build it is the reference loop.
// len(xs) must be <= 64.
func MaskWord(xs, ys []float64, px, py, r2 float64) uint64 {
	if len(xs) > 64 {
		panic(panicsafe.Invariant("kernel", "MaskWord span longer than 64 lanes: len(xs)=%d", len(xs)))
	}
	return maskWordGeneric(0, xs, ys, px, py, r2, 0)
}

// bucketsInto dispatches one span's bucket classification. Without the
// assembly kernel the reference loop is the only implementation.
func bucketsInto(dst []int32, xs, ys []float64, invR float64, cols int32) {
	bucketsGenericRange(dst, xs, ys, invR, float64(cols-1), cols, 0, len(xs))
}

// putDeltaVarintsInto dispatches one delta column. Without the assembly
// kernel the word-at-a-time loop is the only implementation.
func putDeltaVarintsInto(dst []byte, cur []float64, prev []uint64) (nb, nv int) {
	return putDeltaVarintsGeneric(dst, cur, prev)
}

// Path reports which implementation the package's kernels use; always
// "generic" on this build.
func Path() string { return "generic" }

// HasAVX2 reports the hardware verdict; always false on this build.
func HasAVX2() bool { return false }

// SetGeneric is a no-op on this build: the reference implementation is
// already the only path.
func SetGeneric(force bool) {}
