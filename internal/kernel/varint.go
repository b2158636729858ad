package kernel

import (
	"encoding/binary"
	"math"
	"math/bits"

	"manhattanflood/internal/panicsafe"
)

// This file is the trace-encode half of the kernel package: the delta
// column of the tracev2 run-trace format, batched over one flat float64
// position column. A value's delta is the zig-zag fold of the difference
// of its IEEE-754 bit pattern from the previous frame's, and it is
// written as its LEB128 varint — exactly binary.AppendUvarint's bytes.
//
// Both paths encode the run of values whose delta is below 2^56 (at most
// 8 varint bytes, so one 8-byte store each) and stop before the first
// that is not; the caller writes that rare 9-10 byte value itself and
// resumes. A delta of 2^56 or more needs the position to change sign or
// to move by eight or more binades, e.g. a coordinate leaving exactly
// 0.0.

// PutDeltaVarints encodes the leading values of cur into dst: value i
// becomes the varint of zigzag(bits(cur[i]) - prev[i]), and prev[i] is
// set to bits(cur[i]). It stops at the end of cur or before the first
// value whose zig-zag delta is 2^56 or more, leaving that value and its
// prev untouched, and returns the bytes written and the values encoded.
// Values are stored a word at a time, so dst must hold at least
// 8*len(cur) bytes; the bytes past nb that the stores touch are zero or
// stale. len(prev) must be at least len(cur).
func PutDeltaVarints(dst []byte, cur []float64, prev []uint64) (nb, nv int) {
	if len(dst) < 8*len(cur) || len(prev) < len(cur) {
		// Programmer-error panic: never recovered into a silent fallback
		// (see panicsafe's package comment).
		panic(panicsafe.Invariant("kernel", "delta column buffers too short: len(dst)=%d len(prev)=%d for %d values",
			len(dst), len(prev), len(cur)))
	}
	if len(cur) == 0 {
		return 0, 0
	}
	return putDeltaVarintsInto(dst, cur, prev)
}

// putDeltaVarintsGeneric is the portable word-at-a-time path and the
// reference the assembly path must match byte for byte: each value's
// varint payload is spread into one uint64 (spread7), given its
// continuation bits and stored whole, the cursor advancing by its
// length; the next store overwrites the spare high bytes.
func putDeltaVarintsGeneric(dst []byte, cur []float64, prev []uint64) (nb, nv int) {
	prev = prev[:len(cur)]
	for i, v := range cur {
		p := math.Float64bits(v)
		d := int64(p) - int64(prev[i])
		u := uint64(d<<1) ^ uint64(d>>63)
		if u >= 1<<56 {
			return nb, i
		}
		prev[i] = p
		k := (bits.Len64(u|1) + 6) / 7
		// Continuation bits on bytes 0..k-2. k <= 8, so the &63 only
		// tells the compiler the shift is in range.
		cont := uint64(0x8080808080808080) & (1<<((8*k-8)&63) - 1)
		binary.LittleEndian.PutUint64(dst[nb:], spread7(u)|cont)
		nb += k
	}
	return nb, len(cur)
}

// spread7 moves the eight 7-bit groups of u < 2^56 into the low seven
// bits of the result's eight bytes, the least significant group in the
// lowest byte: the varint payload without its continuation bits. Each
// level halves the group width: 28-bit halves to 32-bit lanes, 14-bit
// quarters to 16-bit lanes, 7-bit groups to bytes. It is what PDEP with
// the mask 0x7F7F7F7F7F7F7F7F computes in one instruction.
func spread7(u uint64) uint64 {
	u = u&0x0000_0000_0FFF_FFFF | (u&0x00FF_FFFF_F000_0000)<<4
	u = u&0x0000_3FFF_0000_3FFF | (u&0x0FFF_C000_0FFF_C000)<<2
	return u&0x007F_007F_007F_007F | (u&0x3F80_3F80_3F80_3F80)<<1
}
