package kernel

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// deltaColumn draws a column of n (prev, cur) bit-pattern pairs whose
// zig-zag deltas cover every varint length, with a delta of 2^56 or more
// at the positions in big.
func deltaColumn(rng *rand.Rand, n int, big ...int) (prev []uint64, cur []float64) {
	prev = make([]uint64, n)
	cur = make([]float64, n)
	for i := range n {
		p := rng.Uint64()
		d := int64(rng.Uint64() >> (9 + rng.IntN(56))) // zigzag(d) < 2^56
		if rng.IntN(2) == 0 {
			d = -d
		}
		if slices.Contains(big, i) {
			d = 1 << 55 // zigzag(d) = 2^56
			if rng.IntN(2) == 0 {
				d = math.MinInt64 // int64 wrap: zigzag(d) = 2^64-1
			}
		}
		prev[i] = p
		cur[i] = math.Float64frombits(p + uint64(d))
	}
	return prev, cur
}

// TestPutDeltaVarintsMatchesUvarint pins the active path (the BMI2
// kernel where the CPU has one) and the portable loop to
// binary.AppendUvarint byte for byte on every column length from 1 to
// 70, including where they stop: before the first delta of 2^56 or
// more, with that value's prev untouched.
func TestPutDeltaVarintsMatchesUvarint(t *testing.T) {
	t.Logf("kernel path: %s", Path())
	defer SetGeneric(false)
	rng := rand.New(rand.NewPCG(7, 0xbeef))
	for n := 1; n <= 70; n++ {
		for _, big := range [][]int{nil, {0}, {n - 1}, {n / 2, n - 1}} {
			prev, cur := deltaColumn(rng, n, big...)
			stop := n
			if len(big) > 0 {
				stop = big[0]
			}
			var want []byte
			wantPrev := slices.Clone(prev)
			for i := range stop {
				p := math.Float64bits(cur[i])
				d := int64(p) - int64(prev[i])
				want = binary.AppendUvarint(want, uint64(d<<1)^uint64(d>>63))
				wantPrev[i] = p
			}
			for _, generic := range []bool{false, true} {
				SetGeneric(generic)
				dst := bytes.Repeat([]byte{0xEE}, 8*n)
				gotPrev := slices.Clone(prev)
				nb, nv := PutDeltaVarints(dst, cur, gotPrev)
				if nv != stop || !bytes.Equal(dst[:nb], want) || !slices.Equal(gotPrev, wantPrev) {
					t.Fatalf("path %s, n=%d, big at %v: encoded %d values as %x, prev %#x;\nwant %d values as %x, prev %#x",
						Path(), n, big, nv, dst[:nb], gotPrev, stop, want, wantPrev)
				}
			}
		}
	}
}

// TestPutDeltaVarintsShortBuffer pins the bounds check that keeps the
// word stores inside dst.
func TestPutDeltaVarintsShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PutDeltaVarints accepted a dst shorter than 8 bytes per value")
		}
	}()
	PutDeltaVarints(make([]byte, 15), make([]float64, 2), make([]uint64, 2))
}

// BenchmarkPutDeltaVarints20k measures one delta column of 20k values on
// both selectable paths at the paused traced flood's mix: half the
// deltas zero (paused agents, 1 byte), half a 0.1 move of a coordinate
// in [1, 141) (7 bytes). ns/value is the encode cost per value.
func BenchmarkPutDeltaVarints20k(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewPCG(5, 6))
	prev := make([]uint64, n)
	cur := [2][]float64{make([]float64, n), make([]float64, n)}
	for i := range n {
		x := 1 + rng.Float64()*140
		cur[0][i], cur[1][i] = x, x
		if i%2 == 0 {
			cur[1][i] = x + 0.1
		}
		prev[i] = math.Float64bits(x)
	}
	dst := make([]byte, 8*n)
	for _, path := range []struct {
		name    string
		generic bool
	}{{"active", false}, {"generic", true}} {
		b.Run(path.name, func(b *testing.B) {
			SetGeneric(path.generic)
			defer SetGeneric(false)
			k := 0
			for b.Loop() {
				k ^= 1
				if _, nv := PutDeltaVarints(dst, cur[k], prev); nv != n {
					b.Fatalf("stopped after %d of %d values", nv, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
		})
	}
}
