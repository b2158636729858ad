package tracev2

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

func marshalInfo(info RunInfo) ([]byte, error) {
	b, err := json.Marshal(info)
	if err != nil {
		return nil, fmt.Errorf("tracev2: encoding header: %w", err)
	}
	return b, nil
}

// frameMeta is one scanned frame: where its payload lives and what the
// fixed header said about it.
type frameMeta struct {
	offset int64 // payload offset in the file
	step   uint32
	plen   uint32
	crc    uint32
	kind   byte
}

// Reader opens a trace for replay: it validates the magic, decodes the
// header and scans the frame sequence once, checking every CRC, building
// the frame index Seek uses and truncating a torn tail per the package's
// crash discipline.
type Reader struct {
	r      io.ReadSeeker
	info   RunInfo
	frames []frameMeta
}

// NewReader scans the trace in r. A trailing frame cut short by a crash
// is dropped silently; a complete frame that fails its CRC or structural
// checks is a hard error.
func NewReader(r io.ReadSeeker) (*Reader, error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("tracev2: %w", err)
	}
	var head [len(magic) + 4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("tracev2: reading magic: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("tracev2: bad magic %q", head[:len(magic)])
	}
	hdrLen := binary.LittleEndian.Uint32(head[len(magic):])
	if hdrLen > 1<<20 {
		return nil, fmt.Errorf("tracev2: implausible header length %d", hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("tracev2: reading header: %w", err)
	}
	rd := &Reader{r: r}
	if err := json.Unmarshal(hdr, &rd.info); err != nil {
		return nil, fmt.Errorf("tracev2: decoding header: %w", err)
	}
	if rd.info.Schema != Schema {
		return nil, fmt.Errorf("tracev2: unsupported schema %q", rd.info.Schema)
	}
	if rd.info.N <= 0 {
		return nil, fmt.Errorf("tracev2: header N = %d", rd.info.N)
	}
	if err := rd.scan(int64(len(magic)) + 4 + int64(hdrLen)); err != nil {
		return nil, err
	}
	return rd, nil
}

// maxPayload bounds the payload of any frame a Writer emits for n agents:
// the flags byte, two position columns of at most one maximal varint per
// entry (a keyframe's raw 8-byte floats are shorter), a keyframe's
// informed bitmap, and a newly-informed list of at most n varint ids plus
// its count.
func maxPayload(n int) int64 {
	const v = binary.MaxVarintLen64
	if n > math.MaxInt32 {
		return math.MaxInt64 // no frame that large fits in a u32 length anyway
	}
	return 1 + 2*int64(n)*v + 8*int64((n+63)/64) + (int64(n)+1)*v
}

// scan walks the frame sequence from offset, verifying CRCs and frame
// structure. It stops silently at a torn tail (short header or payload)
// and errors on corruption in fully present frames. A frame's payload
// length is checked before anything is allocated for it: a length past
// the end of the stream is a torn tail, and a length no frame of N agents
// can have is corruption, so a damaged header cannot demand a 4 GiB
// buffer.
func (rd *Reader) scan(offset int64) error {
	size, err := rd.r.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("tracev2: %w", err)
	}
	if _, err := rd.r.Seek(offset, io.SeekStart); err != nil {
		return fmt.Errorf("tracev2: %w", err)
	}
	maxLen := maxPayload(rd.info.N)
	var hdr [frameHdrSize]byte
	buf := make([]byte, 0, 1<<16)
	for {
		if _, err := io.ReadFull(rd.r, hdr[:]); err != nil {
			// io.EOF: clean end. ErrUnexpectedEOF: torn header — the
			// crash discipline treats the partial frame as uncommitted.
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil
			}
			return fmt.Errorf("tracev2: reading frame header: %w", err)
		}
		m := frameMeta{
			kind:   hdr[0],
			step:   binary.LittleEndian.Uint32(hdr[1:]),
			plen:   binary.LittleEndian.Uint32(hdr[5:]),
			crc:    binary.LittleEndian.Uint32(hdr[9:]),
			offset: offset + frameHdrSize,
		}
		if int64(m.plen) > size-m.offset {
			return nil // torn payload: uncommitted tail
		}
		if int64(m.plen) > maxLen {
			return fmt.Errorf("tracev2: frame at offset %d: payload length %d exceeds the %d-byte maximum for N = %d", offset, m.plen, maxLen, rd.info.N)
		}
		if cap(buf) < int(m.plen) {
			buf = make([]byte, m.plen)
		}
		payload := buf[:m.plen]
		if _, err := io.ReadFull(rd.r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil // torn payload: uncommitted tail
			}
			return fmt.Errorf("tracev2: reading frame payload: %w", err)
		}
		// The frame is fully present: from here on problems are
		// corruption, not crash artifacts.
		if crc32.Checksum(payload, castagnoli) != m.crc {
			return fmt.Errorf("tracev2: frame at offset %d (step %d): CRC mismatch", offset, m.step)
		}
		if m.kind != kindKey && m.kind != kindDelta {
			return fmt.Errorf("tracev2: frame at offset %d: unknown kind %d", offset, m.kind)
		}
		if m.kind == kindDelta {
			if len(rd.frames) == 0 {
				return fmt.Errorf("tracev2: delta frame at offset %d with no preceding keyframe", offset)
			}
			if prev := rd.frames[len(rd.frames)-1].step; m.step != prev+1 {
				return fmt.Errorf("tracev2: delta frame at offset %d: step %d does not follow %d", offset, m.step, prev)
			}
		}
		rd.frames = append(rd.frames, m)
		offset = m.offset + int64(m.plen)
	}
}

// Info returns the decoded header.
func (rd *Reader) Info() RunInfo { return rd.info }

// Frames returns the number of committed frames.
func (rd *Reader) Frames() int { return len(rd.frames) }

// Steps returns the first and last recorded step; ok is false for an
// empty trace.
func (rd *Reader) Steps() (first, last int, ok bool) {
	if len(rd.frames) == 0 {
		return 0, 0, false
	}
	return int(rd.frames[0].step), int(rd.frames[len(rd.frames)-1].step), true
}

// Replayer reconstructs per-step state by decoding frames in order. Its
// accessors expose the state of the current frame; the slices are owned
// by the Replayer and rewritten by Next/Seek.
type Replayer struct {
	rd  *Reader
	idx int // index of the next frame to decode

	step    int
	x, y    []float64
	inf     []bool
	hasInf  bool
	newly   []int32
	payload []byte
}

// Replayer returns a fresh replayer positioned before the first frame;
// call Next (or Seek) to decode state.
func (rd *Reader) Replayer() *Replayer {
	n := rd.info.N
	return &Replayer{
		rd:   rd,
		step: -1,
		x:    make([]float64, n),
		y:    make([]float64, n),
		inf:  make([]bool, n),
	}
}

// Next decodes the next frame, returning io.EOF after the last.
func (rp *Replayer) Next() error {
	if rp.idx >= len(rp.rd.frames) {
		return io.EOF
	}
	if err := rp.decode(rp.idx); err != nil {
		return err
	}
	rp.idx++
	return nil
}

// Seek positions the replayer exactly at the recorded step: it decodes
// forward from the nearest preceding keyframe, so the cost is bounded by
// the writer's keyframe interval. It errors when step was not recorded.
func (rp *Replayer) Seek(step int) error {
	frames := rp.rd.frames
	// Find the frame with the target step (frames are step-sorted).
	lo, hi := 0, len(frames)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(frames[mid].step) < step {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(frames) || int(frames[lo].step) != step {
		return fmt.Errorf("tracev2: step %d not recorded", step)
	}
	// Back up to the governing keyframe.
	start := lo
	for frames[start].kind != kindKey {
		start--
	}
	for i := start; i <= lo; i++ {
		if err := rp.decode(i); err != nil {
			return err
		}
	}
	rp.idx = lo + 1
	return nil
}

// decode loads and applies frame i.
func (rp *Replayer) decode(i int) error {
	m := rp.rd.frames[i]
	if _, err := rp.rd.r.Seek(m.offset, io.SeekStart); err != nil {
		return fmt.Errorf("tracev2: %w", err)
	}
	if cap(rp.payload) < int(m.plen) {
		rp.payload = make([]byte, m.plen)
	}
	p := rp.payload[:m.plen]
	if _, err := io.ReadFull(rp.rd.r, p); err != nil {
		return fmt.Errorf("tracev2: reading frame payload: %w", err)
	}
	if crc32.Checksum(p, castagnoli) != m.crc {
		return fmt.Errorf("tracev2: frame for step %d: CRC mismatch", m.step)
	}
	if len(p) < 1 {
		return fmt.Errorf("tracev2: frame for step %d: empty payload", m.step)
	}
	flags := p[0]
	if flags&^byte(flagInformed) != 0 {
		return fmt.Errorf("tracev2: frame for step %d: unknown flags %#x", m.step, flags)
	}
	hasInf := flags&flagInformed != 0
	p = p[1:]
	n := rp.rd.info.N
	var err error
	if m.kind == kindKey {
		if p, err = decodeRawColumn(p, rp.x); err != nil {
			return fmt.Errorf("tracev2: frame for step %d: x column: %w", m.step, err)
		}
		if p, err = decodeRawColumn(p, rp.y); err != nil {
			return fmt.Errorf("tracev2: frame for step %d: y column: %w", m.step, err)
		}
		if hasInf {
			nw := (n + 63) / 64
			if len(p) < nw*8 {
				return fmt.Errorf("tracev2: frame for step %d: short informed bitmap", m.step)
			}
			for i := range rp.inf {
				rp.inf[i] = p[(i>>6)*8+((i>>3)&7)]&(1<<(uint(i)&7)) != 0
			}
			p = p[nw*8:]
		}
	} else {
		if p, err = applyDeltaColumn(p, rp.x); err != nil {
			return fmt.Errorf("tracev2: frame for step %d: x column: %w", m.step, err)
		}
		if p, err = applyDeltaColumn(p, rp.y); err != nil {
			return fmt.Errorf("tracev2: frame for step %d: y column: %w", m.step, err)
		}
	}
	rp.newly = rp.newly[:0]
	if hasInf {
		count, sz := binary.Uvarint(p)
		if sz <= 0 || count > uint64(n) {
			return fmt.Errorf("tracev2: frame for step %d: bad newly-informed count", m.step)
		}
		p = p[sz:]
		prev := int64(0)
		for k := uint64(0); k < count; k++ {
			u, sz := binary.Uvarint(p)
			if sz <= 0 {
				return fmt.Errorf("tracev2: frame for step %d: truncated newly-informed list", m.step)
			}
			p = p[sz:]
			id := prev + unzigzag(u)
			if id < 0 || id >= int64(n) {
				return fmt.Errorf("tracev2: frame for step %d: newly-informed id %d out of range", m.step, id)
			}
			rp.newly = append(rp.newly, int32(id))
			prev = id
		}
		if m.kind == kindDelta {
			for _, id := range rp.newly {
				rp.inf[id] = true
			}
		}
	} else if rp.hasInf {
		// Transition back to a position-only segment: the informed state
		// no longer applies.
		clear(rp.inf)
	}
	if len(p) != 0 {
		return fmt.Errorf("tracev2: frame for step %d: %d trailing payload bytes", m.step, len(p))
	}
	rp.step = int(m.step)
	rp.hasInf = hasInf
	return nil
}

// Step returns the step of the current frame (-1 before the first Next).
func (rp *Replayer) Step() int { return rp.step }

// X and Y return the reconstructed position columns for the current
// frame. The slices are reused by Next/Seek.
func (rp *Replayer) X() []float64 { return rp.x }

// Y returns the reconstructed Y column; see X.
func (rp *Replayer) Y() []float64 { return rp.y }

// HasInformed reports whether the current frame carried flooding state.
func (rp *Replayer) HasInformed() bool { return rp.hasInf }

// Informed returns the reconstructed informed flags (meaningful only
// when HasInformed). The slice is reused by Next/Seek.
func (rp *Replayer) Informed() []bool {
	if !rp.hasInf {
		return nil
	}
	return rp.inf
}

// NewlyInformed returns the current frame's newly-informed ids in their
// recorded discovery order. The slice is reused by Next/Seek.
func (rp *Replayer) NewlyInformed() []int32 {
	if !rp.hasInf {
		return nil
	}
	return rp.newly
}

// decodeRawColumn reads len(dst) little-endian float64 values.
func decodeRawColumn(p []byte, dst []float64) ([]byte, error) {
	need := len(dst) * 8
	if len(p) < need {
		return nil, fmt.Errorf("short column: %d bytes, want %d", len(p), need)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	return p[need:], nil
}

// applyDeltaColumn applies len(dst) zig-zag bit-pattern deltas in place.
func applyDeltaColumn(p []byte, dst []float64) ([]byte, error) {
	for i := range dst {
		u, sz := binary.Uvarint(p)
		if sz <= 0 {
			return nil, fmt.Errorf("truncated delta at entry %d", i)
		}
		p = p[sz:]
		bits := uint64(int64(math.Float64bits(dst[i])) + unzigzag(u))
		dst[i] = math.Float64frombits(bits)
	}
	return p, nil
}
