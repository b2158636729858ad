//go:build !amd64 || purego

package kernel

// maskInto computes one span's mask. Without the assembly kernel the
// reference loop is the only implementation.
func maskInto(dst []uint64, xs, ys []float64, px, py, r2 float64) {
	maskGenericRange(dst, xs, ys, px, py, r2, 0, len(xs))
}
