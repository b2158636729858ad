// Package tracev2 implements the columnar run-trace format: a compact,
// append-only binary log of a simulation's per-step state — the X/Y
// position columns and, for flooding runs, the informed set — written
// directly from the flat structure-of-arrays slices the step loop owns,
// with zero steady-state allocations, and replayable bit-exactly without
// re-running mobility.
//
// # File layout
//
// A trace is a header followed by a sequence of frames:
//
//	file   := magic header frame*
//	magic  := "MFTRACE2"                      (8 bytes)
//	header := u32 len | len bytes JSON(RunInfo)
//	frame  := u8 kind | u32 step | u32 payloadLen | u32 crc32c(payload) | payload
//
// All fixed-width integers are little-endian; crc32c is the Castagnoli
// CRC-32 of the payload bytes. kind 0 is a keyframe (self-contained),
// kind 1 a delta frame (relative to the previous frame).
//
// # Frame payloads
//
//	payload := u8 flags | xblock | yblock | [informed]
//
// flags bit 0 records whether the informed block is present (flooding
// frames); all other bits must be zero.
//
// In a keyframe, xblock and yblock are the raw position columns — n
// little-endian IEEE-754 float64 values each — and the informed block is
// the full informed bitmap (ceil(n/64) little-endian uint64 words, bit i
// of word i/64 = agent i informed) followed by the step's newly-informed
// id list. In a delta frame, xblock and yblock encode, per agent, the
// difference of the position's *bit pattern* from the previous frame —
// zig-zag signed varints of int64(bits(cur)) - int64(bits(prev)) — and
// the informed block is the newly-informed list alone (the ids flipped
// to informed this step; the rest of the bitmap is carried forward).
//
// The newly-informed list is a uvarint count followed by the ids in their
// deterministic discovery order (bucket-major sweep hits, then chained
// BFS order), each encoded as the zig-zag varint difference from the
// previous id in the list (the first relative to zero). The order is part
// of the format: replay reproduces not just the informed set but the
// discovery sequence.
//
// # Quantization contract
//
// The "int quantization" of the position columns is the identity map on
// the IEEE-754 lattice: a float64 is encoded through its bit pattern
// (math.Float64bits), never through a rounded decimal or fixed-point
// grid. Decoding therefore reproduces positions bit-exactly — replay
// equality is ==, not approximate — while consecutive-step deltas of the
// bit patterns stay small (an agent moving V per step keeps the exponent
// and high mantissa bits, so typical deltas fit 5-7 varint bytes instead
// of 8 raw ones; a zero delta, e.g. a paused agent, is 1 byte).
//
// # Encoding
//
// The delta columns are most of the writer's work. appendDeltaColumn
// hands each to kernel.PutDeltaVarints: a BMI2 assembly loop (LZCNT for
// the length, one PDEP for the 7-bit spread, one 8-byte store per value)
// on amd64 CPUs with a fast PDEP, a word-at-a-time Go loop elsewhere,
// under -tags purego and after GODEBUG=mfkernel=generic. Both write
// exactly binary.AppendUvarint's bytes, so the trace does not depend on
// the path: RunInfo.KernelPath is provenance, not semantics.
//
// # Torn tails and corruption
//
// The format follows internal/checkpoint's crash discipline: a trailing
// frame that was cut short by a crash (header or payload extends past
// EOF) is uncommitted — the reader silently stops before it — while a
// fully present frame whose CRC does not match, or whose structure is
// inconsistent (bad kind, non-contiguous delta step), is data corruption
// and a hard error.
package tracev2

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"manhattanflood/internal/kernel"
)

// Schema is the RunInfo schema identifier of this format version.
const Schema = "manhattanflood/trace/v2"

// magic opens every trace file.
const magic = "MFTRACE2"

// Frame kinds.
const (
	kindKey   = 0 // self-contained keyframe
	kindDelta = 1 // relative to the previous frame
)

// frameHdrSize is the fixed frame header: kind u8, step u32,
// payloadLen u32, crc u32.
const frameHdrSize = 1 + 4 + 4 + 4

// flagInformed marks a payload carrying an informed block.
const flagInformed = 1

// DefaultKeyframeEvery is the keyframe interval used when RunInfo leaves
// KeyframeEvery zero: one self-contained frame every this many frames
// bounds both replay seek cost and the blast radius of a corrupt frame.
const DefaultKeyframeEvery = 64

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RunInfo is the trace header: everything needed to interpret the frames
// and to reproduce the run that wrote them (Config + seed + kernel path +
// tile split). It is stored as JSON so the header survives format
// evolution that only adds fields.
type RunInfo struct {
	// Schema identifies the format ("manhattanflood/trace/v2").
	Schema string `json:"schema"`
	// N is the agent count; every frame's columns have exactly N entries.
	N int `json:"n"`
	// L, R, V and Seed are the run's Config geometry, radius, speed and
	// RNG seed.
	L    float64 `json:"l"`
	R    float64 `json:"r"`
	V    float64 `json:"v"`
	Seed uint64  `json:"seed"`
	// Model names the mobility model ("mrwp", "rwp", ...).
	Model string `json:"model"`
	// Workers and Tiles record the parallel/tiled configuration (results
	// are bit-identical across them; recorded for provenance).
	Workers int `json:"workers,omitempty"`
	Tiles   int `json:"tiles,omitempty"`
	// Pause is the way-point pause bound (0 = none).
	Pause float64 `json:"pause,omitempty"`
	// KernelPath records which compute kernel wrote the run ("avx2",
	// "generic"); trajectories are bit-identical across kernels, so this
	// too is provenance, not semantics.
	KernelPath string `json:"kernel_path,omitempty"`
	// KeyframeEvery is the writer's keyframe interval (0 = the package
	// default).
	KeyframeEvery int `json:"keyframe_every,omitempty"`
}

// zigzag folds a signed delta into an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag is zigzag's inverse.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer streams frames to an io.Writer. It owns all encoding state —
// previous-frame bit patterns, the frame assembly buffer — so the steady
// state performs no allocations and exactly one Write call per frame.
// Writer is not safe for concurrent use.
type Writer struct {
	w        io.Writer
	info     RunInfo
	keyEvery int

	started  bool // at least one frame written
	prevStep int  // step of the last frame
	sinceKey int  // delta frames since the last keyframe
	prevInf  bool // last frame carried an informed block
	frames   int  // total frames written
	prevX    []uint64
	prevY    []uint64 // previous-frame position bit patterns
	buf      []byte   // frame assembly buffer, reused
	words    []uint64 // informed bitmap scratch (keyframes)
	err      error    // first failed frame Write; sticky
}

// NewWriter writes the magic and header for info and returns a Writer
// ready for WriteStep. info.Schema and info.KeyframeEvery are defaulted
// when zero; info.N must be positive.
func NewWriter(w io.Writer, info RunInfo) (*Writer, error) {
	if info.N <= 0 {
		return nil, fmt.Errorf("tracev2: RunInfo.N must be positive, got %d", info.N)
	}
	if info.Schema == "" {
		info.Schema = Schema
	}
	if info.Schema != Schema {
		return nil, fmt.Errorf("tracev2: unsupported schema %q", info.Schema)
	}
	if info.KeyframeEvery <= 0 {
		info.KeyframeEvery = DefaultKeyframeEvery
	}
	hdr, err := marshalInfo(info)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(magic)+4+len(hdr))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr)))
	out = append(out, hdr...)
	if _, err := w.Write(out); err != nil {
		return nil, fmt.Errorf("tracev2: writing header: %w", err)
	}
	return &Writer{
		w:        w,
		info:     info,
		keyEvery: info.KeyframeEvery,
		prevX:    make([]uint64, info.N),
		prevY:    make([]uint64, info.N),
	}, nil
}

// Info returns the header as written.
func (t *Writer) Info() RunInfo { return t.info }

// Frames returns the number of frames written so far.
func (t *Writer) Frames() int { return t.frames }

// WriteStep appends one frame for the given step. x and y are the live
// position columns (length N; read, never retained). informed and newly
// describe the flooding state for flooding frames and must both be nil
// (or both non-nil) otherwise; informed has length N, newly holds the
// ids informed during this step in discovery order.
//
// The writer picks the frame kind itself: the first frame, every
// KeyframeEvery-th frame, any step discontinuity (step != previous+1)
// and any informed-presence transition forces a keyframe; everything
// else is a delta.
//
// A failed Write to the underlying writer is sticky, as in bufio.Writer:
// that call and every later WriteStep return the same error and write
// nothing. The frames written before it stay a valid trace, and a frame
// the failed Write cut short is a torn tail the reader drops. (Encoding
// has already advanced the delta state to the failed frame, so writing
// on would produce deltas against positions the trace never received.)
// Argument errors are not sticky.
func (t *Writer) WriteStep(step int, x, y []float64, informed []bool, newly []int32) error {
	if t.err != nil {
		return t.err
	}
	n := t.info.N
	if len(x) != n || len(y) != n {
		return fmt.Errorf("tracev2: position columns have length %d/%d, want %d", len(x), len(y), n)
	}
	hasInf := informed != nil
	if hasInf && len(informed) != n {
		return fmt.Errorf("tracev2: informed column has length %d, want %d", len(informed), n)
	}
	if !hasInf && newly != nil {
		return fmt.Errorf("tracev2: newly-informed list without informed column")
	}
	if step < 0 || step > math.MaxUint32 {
		return fmt.Errorf("tracev2: step %d outside the format's u32 range", step)
	}
	key := !t.started ||
		t.sinceKey+1 >= t.keyEvery ||
		step != t.prevStep+1 ||
		hasInf != t.prevInf

	b := t.buf[:0]
	// Reserve the fixed header; filled in below once the payload is known.
	var hdrZero [frameHdrSize]byte
	b = append(b, hdrZero[:]...)
	flags := byte(0)
	if hasInf {
		flags |= flagInformed
	}
	b = append(b, flags)
	if key {
		for _, v := range x {
			bits := math.Float64bits(v)
			b = binary.LittleEndian.AppendUint64(b, bits)
		}
		for i, v := range x {
			t.prevX[i] = math.Float64bits(v)
		}
		for _, v := range y {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		for i, v := range y {
			t.prevY[i] = math.Float64bits(v)
		}
	} else {
		b = appendDeltaColumn(b, x, t.prevX)
		b = appendDeltaColumn(b, y, t.prevY)
	}
	if hasInf {
		if key {
			nw := (n + 63) / 64
			if cap(t.words) < nw {
				t.words = make([]uint64, nw)
			}
			words := t.words[:nw]
			clear(words)
			for i, inf := range informed {
				if inf {
					words[i>>6] |= 1 << (uint(i) & 63)
				}
			}
			for _, w := range words {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
		}
		b = binary.AppendUvarint(b, uint64(len(newly)))
		prev := int64(0)
		for _, id := range newly {
			b = binary.AppendUvarint(b, zigzag(int64(id)-prev))
			prev = int64(id)
		}
	}
	payload := b[frameHdrSize:]
	kind := byte(kindDelta)
	if key {
		kind = kindKey
	}
	b[0] = kind
	binary.LittleEndian.PutUint32(b[1:], uint32(step))
	binary.LittleEndian.PutUint32(b[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[9:], crc32.Checksum(payload, castagnoli))
	t.buf = b
	if _, err := t.w.Write(b); err != nil {
		t.err = fmt.Errorf("tracev2: writing frame for step %d: %w", step, err)
		return t.err
	}
	t.started = true
	t.prevStep = step
	t.prevInf = hasInf
	t.frames++
	if key {
		t.sinceKey = 0
	} else {
		t.sinceKey++
	}
	return nil
}

// appendDeltaColumn encodes cur as zig-zag varints of the bit-pattern
// difference from prev, updating prev to cur's bits in the same pass. The
// bytes are exactly binary.AppendUvarint's. The column's worst case
// (binary.MaxVarintLen64 per value) is reserved once, and
// kernel.PutDeltaVarints encodes each run of deltas below 2^56 a word per
// value — the BMI2 assembly kernel where the CPU has a fast one, the
// word-at-a-time Go loop elsewhere. The rare delta of 2^56 or more
// (9-10 bytes) that ends a run goes through binary.PutUvarint. Each value
// advances the cursor by at most MaxVarintLen64, so the kernel's 8-byte
// stores always end inside the reservation.
func appendDeltaColumn(b []byte, cur []float64, prev []uint64) []byte {
	n := len(b)
	b = slices.Grow(b, len(cur)*binary.MaxVarintLen64)
	out := b[:cap(b)]
	prev = prev[:len(cur)]
	for i := 0; ; i++ {
		nb, nv := kernel.PutDeltaVarints(out[n:], cur[i:], prev[i:])
		n, i = n+nb, i+nv
		if i == len(cur) {
			return b[:n]
		}
		p := math.Float64bits(cur[i])
		n += binary.PutUvarint(out[n:], zigzag(int64(p)-int64(prev[i])))
		prev[i] = p
	}
}
