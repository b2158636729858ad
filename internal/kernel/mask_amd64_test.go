//go:build amd64 && !purego

package kernel

// maskInto dispatches one span's mask computation to the selected
// implementation. The assembly path covers the largest multiple of four
// lanes; the reference loop finishes the tail in place.
func maskInto(dst []uint64, xs, ys []float64, px, py, r2 float64) {
	n := len(xs)
	if n >= 16 && useAVX2.Load() {
		n4 := n &^ 3
		maskAVX2(&dst[0], &xs[0], &ys[0], px, py, r2, n4)
		maskGenericRange(dst, xs, ys, px, py, r2, n4, n)
		return
	}
	maskGenericRange(dst, xs, ys, px, py, r2, 0, n)
}
