//go:build amd64 && !purego

package kernel

import (
	"encoding/binary"
	"os"
	"strings"
	"sync/atomic"

	"manhattanflood/internal/panicsafe"
)

// avx2Available is the one-time CPUID verdict: AVX2 present and the OS
// saves/restores YMM state. Immutable after init.
var avx2Available = detectAVX2()

// defaultAVX2 is the selection the process starts with: the hardware
// verdict, minus the GODEBUG=mfkernel=generic override.
var defaultAVX2 = avx2Available && !godebugForcesGeneric(os.Getenv("GODEBUG"))

// fastBMI2 is the one-time CPUID verdict for the delta-varint kernel:
// BMI2 and LZCNT present, and PDEP not microcoded. Immutable after init.
var fastBMI2 = detectFastBMI2()

// useAVX2 is the runtime switch every kernel consults on every call; the
// delta-varint kernel additionally needs fastBMI2. Atomic so SetGeneric
// may flip it while concurrent sweep shards are querying — both paths
// produce bit-identical output, so a mid-flight flip is harmless (and
// property-tested).
var useAVX2 atomic.Bool

func init() {
	useAVX2.Store(defaultAVX2)
}

// godebugForcesGeneric reports whether the GODEBUG value carries the
// mfkernel=generic token, the runtime opt-out that forces the portable
// reference kernel without rebuilding.
func godebugForcesGeneric(godebug string) bool {
	for godebug != "" {
		var kv string
		kv, godebug, _ = strings.Cut(godebug, ",")
		if kv == "mfkernel=generic" {
			return true
		}
	}
	return false
}

// detectAVX2 performs the CPUID dance: AVX2 (leaf 7 EBX bit 5) is only
// usable when the OS has enabled XMM+YMM state saving (OSXSAVE plus
// XCR0 bits 1 and 2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		osxsaveBit = 1 << 27 // CPUID.1:ECX.OSXSAVE
		avxBit     = 1 << 28 // CPUID.1:ECX.AVX
	)
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// detectFastBMI2 checks CPUID for BMI2 (leaf 7 EBX bit 8) and LZCNT
// (leaf 0x80000001 ECX bit 5) — without the latter the LZCNT encoding
// silently executes as BSR — and rules out the CPUs whose PDEP is
// microcoded (see slowPDEP).
func detectFastBMI2() bool {
	maxLeaf, vb, vc, vd := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, ebx7, _, _ := cpuidex(7, 0); ebx7&(1<<8) == 0 {
		return false
	}
	if maxExt, _, _, _ := cpuidex(0x80000000, 0); maxExt < 0x80000001 {
		return false
	}
	if _, _, ecx, _ := cpuidex(0x80000001, 0); ecx&(1<<5) == 0 {
		return false
	}
	var vendor [12]byte
	binary.LittleEndian.PutUint32(vendor[0:], vb)
	binary.LittleEndian.PutUint32(vendor[4:], vd)
	binary.LittleEndian.PutUint32(vendor[8:], vc)
	eax1, _, _, _ := cpuidex(1, 0)
	family := eax1 >> 8 & 0xF
	if family == 0xF {
		family += eax1 >> 20 & 0xFF
	}
	return !slowPDEP(string(vendor[:]), family)
}

// slowPDEP reports whether a CPU of the given CPUID vendor and family
// implements PDEP in microcode: AMD before Zen 3 (family 0x19) and the
// Zen-derived Hygon parts take tens to hundreds of cycles per PDEP, far
// slower than the portable loop.
func slowPDEP(vendor string, family uint32) bool {
	return (vendor == "AuthenticAMD" || vendor == "HygonGenuine") && family < 0x19
}

// cpuidex executes CPUID with the given leaf and subleaf.
//
//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
//
//go:noescape
func xgetbv0() (eax, edx uint32)

// maskAVX2 is the assembly kernel: it writes ceil(n/64) mask words to
// dst for the first n lanes of xs/ys. n must be a positive multiple of
// 4. Plain VSUBPD/VMULPD/VADDPD plus an ordered VCMPPD — no FMA — so
// every lane is bit-identical to maskGenericRange.
//
//go:noescape
func maskAVX2(dst *uint64, xs, ys *float64, px, py, r2 float64, n int)

// MaskWord returns the radius-test bitmask of a span of at most 64
// lanes as a single word — the buffer-free fast path for CSR row spans,
// which almost always fit one word. Bit k (k < len(xs)) is set iff lane
// k is within r2 of (px, py); higher bits are zero. The lanes are
// bit-identical to maskWordGeneric, the reference, on every input.
// len(xs) must be <= 64.
func MaskWord(xs, ys []float64, px, py, r2 float64) uint64 {
	n := len(xs)
	if n > 64 {
		panic(panicsafe.Invariant("kernel", "MaskWord span longer than 64 lanes: len(xs)=%d", n))
	}
	if n >= 8 && useAVX2.Load() {
		var w uint64
		n4 := n &^ 3
		maskAVX2(&w, &xs[0], &ys[0], px, py, r2, n4)
		if n4 < n {
			w = maskWordGeneric(w, xs, ys, px, py, r2, n4)
		}
		return w
	}
	return maskWordGeneric(0, xs, ys, px, py, r2, 0)
}

// bucketsAVX2 is the assembly classify kernel: it writes n bucket ids to
// dst for the first n lanes of xs/ys. n must be a positive multiple of
// 4, cm1 must equal float64(cols-1). VMULPD + VMAXPD/VMINPD float-domain
// clamps + VCVTTPD2DQ + VPMULLD/VPADDD — no FMA — so every lane is
// bit-identical to bucketsGenericRange.
//
//go:noescape
func bucketsAVX2(dst *int32, xs, ys *float64, invR, cm1 float64, cols int32, n int)

// bucketsInto dispatches one span's bucket classification to the
// selected implementation. The assembly path covers the largest multiple
// of four lanes; the reference loop finishes the tail in place.
func bucketsInto(dst []int32, xs, ys []float64, invR float64, cols int32) {
	n := len(xs)
	cm1 := float64(cols - 1)
	if n >= 8 && useAVX2.Load() {
		n4 := n &^ 3
		bucketsAVX2(&dst[0], &xs[0], &ys[0], invR, cm1, cols, n4)
		bucketsGenericRange(dst, xs, ys, invR, cm1, cols, n4, n)
		return
	}
	bucketsGenericRange(dst, xs, ys, invR, cm1, cols, 0, n)
}

// putDeltaVarintsBMI2 is the assembly delta-varint kernel: it encodes
// cur[0:n) into dst as putDeltaVarintsGeneric does, stopping before the
// first zig-zag delta of 2^56 or more, and returns the bytes written and
// the values encoded. LZCNT indexes varintCont and varintLen, one PDEP
// spreads the 7-bit groups and one 8-byte store writes each value. n
// must be positive, dst must hold 8*n bytes and prev n words.
//
//go:noescape
func putDeltaVarintsBMI2(dst *byte, cur *float64, prev *uint64, n int) (nb, nv int)

// varintCont and varintLen are the assembly kernel's tables, indexed by
// the leading-zero count lz of a zig-zag delta u < 2^56 (lz in 8..64):
// the varint's continuation bits (0x80 on every byte but the last) and
// its length in bytes, (bits.Len64(u|1)+6)/7. Entries below 8 are
// unused.
var varintCont, varintLen = varintTables()

func varintTables() (cont, length [65]uint64) {
	for lz := 8; lz <= 64; lz++ {
		k := max(1, (64-lz+6)/7)
		cont[lz] = 0x8080808080808080 & (1<<(8*k-8) - 1)
		length[lz] = uint64(k)
	}
	return cont, length
}

// putDeltaVarintsInto dispatches one delta column to the selected
// implementation.
func putDeltaVarintsInto(dst []byte, cur []float64, prev []uint64) (nb, nv int) {
	if fastBMI2 && useAVX2.Load() {
		return putDeltaVarintsBMI2(&dst[0], &cur[0], &prev[0], len(cur))
	}
	return putDeltaVarintsGeneric(dst, cur, prev)
}

// Path reports which implementation the package's kernels currently use:
// "avx2" (the assembly kernels; the delta-varint one only on CPUs with
// a fast BMI2) or "generic".
func Path() string {
	if useAVX2.Load() {
		return "avx2"
	}
	return "generic"
}

// HasAVX2 reports the hardware verdict, independent of the current
// selection.
func HasAVX2() bool { return avx2Available }

// SetGeneric forces the portable reference implementation (true) or
// restores the process-default selection (false). It exists for the
// differential and downgrade tests; flipping it mid-run is safe because
// both implementations are bit-identical.
func SetGeneric(force bool) {
	useAVX2.Store(!force && defaultAVX2)
}
