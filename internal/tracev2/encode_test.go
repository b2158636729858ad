package tracev2

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"manhattanflood/internal/kernel"
)

// appendDeltaColumnRef is the byte-at-a-time encoder appendDeltaColumn
// must match: binary.AppendUvarint of each value's zig-zag bit-pattern
// delta, updating prev as it goes.
func appendDeltaColumnRef(b []byte, cur []float64, prev []uint64) []byte {
	for i, v := range cur {
		p := math.Float64bits(v)
		b = binary.AppendUvarint(b, zigzag(int64(p)-int64(prev[i])))
		prev[i] = p
	}
	return b
}

// checkDeltaColumn encodes cur against prev with the reference and with
// appendDeltaColumn on both kernel paths (the assembly kernel where the
// CPU has it, then the forced portable loop), each appending to its own
// copy of prefix, and fails unless the bytes and the updated prev
// columns agree.
func checkDeltaColumn(t *testing.T, prefix []byte, prev []uint64, cur []float64) {
	t.Helper()
	defer kernel.SetGeneric(false)
	wantPrev := slices.Clone(prev)
	want := appendDeltaColumnRef(slices.Clone(prefix), cur, wantPrev)
	for _, generic := range []bool{false, true} {
		kernel.SetGeneric(generic)
		gotPrev := slices.Clone(prev)
		got := appendDeltaColumn(slices.Clone(prefix), cur, gotPrev)
		if !bytes.Equal(got, want) {
			t.Fatalf("path %s, prefix %d B, prev %#x, cur %#x:\n got %x\nwant %x", kernel.Path(), len(prefix), prev, bitsOf(cur), got, want)
		}
		if !slices.Equal(gotPrev, wantPrev) {
			t.Fatalf("path %s: prev after encoding = %#x, want %#x", kernel.Path(), gotPrev, wantPrev)
		}
	}
}

func bitsOf(col []float64) []uint64 {
	out := make([]uint64, len(col))
	for i, v := range col {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestAppendDeltaColumnMatchesReference covers every varint length at
// both ends (2^(7k)-1 and 2^(7k)), the kernel's hand-off at 2^56, deltas
// that wrap int64, and the float bit patterns that arithmetic on values
// would mangle, one value per column and all of them in one column,
// appended to buffers with and without a prefix.
func TestAppendDeltaColumnMatchesReference(t *testing.T) {
	type pair struct{ prev, cur uint64 }
	var cases []pair
	// Zig-zag values: each a delta from a fixed base.
	zz := []uint64{0, 1, 1<<56 - 1, 1 << 56, math.MaxUint64, math.MaxUint64 - 1}
	for k := 1; k <= 9; k++ {
		zz = append(zz, 1<<(7*k)-1, 1<<(7*k))
	}
	for _, base := range []uint64{0, 0x3ff0000000000000, math.MaxUint64} {
		for _, u := range zz {
			cases = append(cases, pair{base, base + uint64(unzigzag(u))})
		}
	}
	// Deltas that wrap int64 in both directions.
	cases = append(cases,
		pair{math.MaxInt64, 1 << 63}, pair{1 << 63, math.MaxInt64},
		pair{0, 1 << 63}, pair{1 << 63, 0}, pair{math.MaxInt64, 0}, pair{0, math.MaxInt64})
	// Special float values against each other.
	special := []uint64{
		math.Float64bits(math.NaN()), 0x7ff0000000000001, 0xfff8000000000000, // quiet, signalling, negative NaN
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		0, 1 << 63, // +0, -0
		1, 0x000fffffffffffff, 1<<63 | 1, // subnormals
		math.Float64bits(math.MaxFloat64), math.Float64bits(1.5),
	}
	for _, a := range special {
		for _, b := range special {
			cases = append(cases, pair{a, b})
		}
	}
	for _, prefix := range [][]byte{nil, {0xAA, 0xBB, 0xCC}, make([]byte, 13, 64)} {
		for _, c := range cases {
			checkDeltaColumn(t, prefix, []uint64{c.prev}, []float64{math.Float64frombits(c.cur)})
		}
	}
	var allPrev []uint64
	var allCur []float64
	for _, c := range cases {
		allPrev = append(allPrev, c.prev)
		allCur = append(allCur, math.Float64frombits(c.cur))
	}
	checkDeltaColumn(t, nil, allPrev, allCur)
	checkDeltaColumn(t, []byte{1, 2, 3, 4, 5}, allPrev, allCur)
	checkDeltaColumn(t, nil, nil, nil)
}

// FuzzAppendDeltaColumn compares appendDeltaColumn on both kernel paths
// with the reference on arbitrary columns: data is read as (prev, cur) bit-pattern pairs, 16
// bytes each, and prefix is the length of the buffer the column appends
// to.
func FuzzAppendDeltaColumn(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(make([]byte, 8), 1<<56), uint8(3))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.MaxInt64), 1<<63), uint8(13))
	rng := rand.New(rand.NewPCG(1, 2))
	seed := make([]byte, 0, 16*64)
	for range 64 {
		p := rng.Uint64()
		seed = binary.LittleEndian.AppendUint64(seed, p)
		seed = binary.LittleEndian.AppendUint64(seed, p+rng.Uint64()>>rng.IntN(64))
	}
	f.Add(seed, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, prefix uint8) {
		var prev []uint64
		var cur []float64
		for ; len(data) >= 16; data = data[16:] {
			prev = append(prev, binary.LittleEndian.Uint64(data))
			cur = append(cur, math.Float64frombits(binary.LittleEndian.Uint64(data[8:])))
		}
		checkDeltaColumn(t, make([]byte, prefix), prev, cur)
	})
}

// BenchmarkWriteStepDelta20k measures delta frames at the shape of the
// paused traced flood: 20k agents on an L = sqrt(n) torus, half of them
// moving 0.1 per step along one axis (x or y) and the rest paused, so
// the position columns mix long and one-byte varints the way a recorded
// MRWP flood does. The frames alternate between two precomputed states,
// so every timed frame is a delta of the same size and no mobility runs
// inside the loop; ns/agent is the encode-and-write cost per agent and
// frame into io.Discard.
func BenchmarkWriteStepDelta20k(b *testing.B) {
	const n = 20000
	l := math.Sqrt(n)
	rng := rand.New(rand.NewPCG(5, 6))
	var x, y [2][]float64
	x[0], y[0] = make([]float64, n), make([]float64, n)
	for i := range n {
		x[0][i], y[0][i] = rng.Float64()*l, rng.Float64()*l
	}
	x[1], y[1] = slices.Clone(x[0]), slices.Clone(y[0])
	for _, i := range rng.Perm(n)[:n/2] {
		if rng.IntN(2) == 0 {
			x[1][i] = math.Mod(x[1][i]+0.1, l)
		} else {
			y[1][i] = math.Mod(y[1][i]+0.1, l)
		}
	}
	w, err := NewWriter(io.Discard, RunInfo{N: n, L: l, KeyframeEvery: math.MaxInt32})
	if err != nil {
		b.Fatal(err)
	}
	step := 0
	if err := w.WriteStep(step, x[0], y[0], nil, nil); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		step++
		if err := w.WriteStep(step, x[step&1], y[step&1], nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/agent")
}
