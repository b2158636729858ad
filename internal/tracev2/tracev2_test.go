package tracev2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
)

// synthetic run data: n agents random-walking, an informed set growing by
// a random batch per step.
type synthRun struct {
	steps    []int
	x, y     [][]float64
	informed [][]bool
	newly    [][]int32
}

func makeRun(t testing.TB, n, steps int, withInformed bool, seed uint64) synthRun {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 7))
	x := make([]float64, n)
	y := make([]float64, n)
	inf := make([]bool, n)
	for i := range x {
		x[i] = rng.Float64() * 100
		y[i] = rng.Float64() * 100
	}
	inf[0] = true
	var run synthRun
	appendStep := func(step int, newly []int32) {
		run.steps = append(run.steps, step)
		run.x = append(run.x, append([]float64(nil), x...))
		run.y = append(run.y, append([]float64(nil), y...))
		if withInformed {
			run.informed = append(run.informed, append([]bool(nil), inf...))
			run.newly = append(run.newly, append([]int32(nil), newly...))
		} else {
			run.informed = append(run.informed, nil)
			run.newly = append(run.newly, nil)
		}
	}
	appendStep(0, []int32{0})
	for s := 1; s <= steps; s++ {
		for i := range x {
			if rng.Float64() < 0.1 {
				continue // paused agent: zero delta
			}
			x[i] += (rng.Float64() - 0.5) * 0.3
			y[i] += (rng.Float64() - 0.5) * 0.3
		}
		var newly []int32
		for k := rng.IntN(3); k > 0; k-- {
			id := int32(rng.IntN(n))
			if !inf[id] {
				inf[id] = true
				newly = append(newly, id)
			}
		}
		appendStep(s, newly)
	}
	return run
}

func writeRun(t testing.TB, run synthRun, n, keyEvery int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, RunInfo{N: n, L: 100, R: 5, V: 0.3, Seed: 1, Model: "test", KeyframeEvery: keyEvery})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i, step := range run.steps {
		if err := w.WriteStep(step, run.x[i], run.y[i], run.informed[i], run.newly[i]); err != nil {
			t.Fatalf("WriteStep(%d): %v", step, err)
		}
	}
	return buf.Bytes()
}

func checkReplay(t *testing.T, data []byte, run synthRun, n int) {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if rd.Frames() != len(run.steps) {
		t.Fatalf("Frames() = %d, want %d", rd.Frames(), len(run.steps))
	}
	rp := rd.Replayer()
	for i, step := range run.steps {
		if err := rp.Next(); err != nil {
			t.Fatalf("Next at frame %d: %v", i, err)
		}
		if rp.Step() != step {
			t.Fatalf("Step() = %d, want %d", rp.Step(), step)
		}
		for j := 0; j < n; j++ {
			if math.Float64bits(rp.X()[j]) != math.Float64bits(run.x[i][j]) ||
				math.Float64bits(rp.Y()[j]) != math.Float64bits(run.y[i][j]) {
				t.Fatalf("step %d agent %d: position (%v, %v), want (%v, %v)",
					step, j, rp.X()[j], rp.Y()[j], run.x[i][j], run.y[i][j])
			}
		}
		if run.informed[i] == nil {
			if rp.HasInformed() {
				t.Fatalf("step %d: unexpected informed state", step)
			}
			continue
		}
		for j, want := range run.informed[i] {
			if rp.Informed()[j] != want {
				t.Fatalf("step %d agent %d: informed %v, want %v", step, j, rp.Informed()[j], want)
			}
		}
		got := rp.NewlyInformed()
		if len(got) != len(run.newly[i]) {
			t.Fatalf("step %d: %d newly informed, want %d", step, len(got), len(run.newly[i]))
		}
		for k := range got {
			if got[k] != run.newly[i][k] {
				t.Fatalf("step %d: newly[%d] = %d, want %d (order must be preserved)",
					step, k, got[k], run.newly[i][k])
			}
		}
	}
	if err := rp.Next(); err != io.EOF {
		t.Fatalf("Next past end: %v, want io.EOF", err)
	}
}

func TestRoundTripInformed(t *testing.T) {
	const n, steps = 57, 200
	run := makeRun(t, n, steps, true, 11)
	for _, keyEvery := range []int{1, 7, 64} {
		data := writeRun(t, run, n, keyEvery)
		checkReplay(t, data, run, n)
	}
}

func TestRoundTripPositionsOnly(t *testing.T) {
	const n, steps = 33, 150
	run := makeRun(t, n, steps, false, 5)
	data := writeRun(t, run, n, 16)
	checkReplay(t, data, run, n)
}

func TestSeek(t *testing.T) {
	const n, steps = 40, 300
	run := makeRun(t, n, steps, true, 3)
	data := writeRun(t, run, n, 32)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rp := rd.Replayer()
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 50; trial++ {
		i := rng.IntN(len(run.steps))
		if err := rp.Seek(run.steps[i]); err != nil {
			t.Fatalf("Seek(%d): %v", run.steps[i], err)
		}
		for j := 0; j < n; j++ {
			if rp.X()[j] != run.x[i][j] || rp.Y()[j] != run.y[i][j] {
				t.Fatalf("Seek(%d) agent %d: wrong position", run.steps[i], j)
			}
		}
		for j, want := range run.informed[i] {
			if rp.Informed()[j] != want {
				t.Fatalf("Seek(%d) agent %d: wrong informed flag", run.steps[i], j)
			}
		}
	}
	if err := rp.Seek(steps + 100); err == nil {
		t.Fatalf("Seek past end succeeded")
	}
}

func TestStepDiscontinuityForcesKeyframe(t *testing.T) {
	const n = 8
	var buf bytes.Buffer
	w, err := NewWriter(&buf, RunInfo{N: n, KeyframeEvery: 1000})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	x := make([]float64, n)
	y := make([]float64, n)
	// Steps 0, 1, then a gap to 10: the gap frame must be a keyframe so
	// replay after the gap stays exact.
	for _, step := range []int{0, 1, 10, 11} {
		for i := range x {
			x[i] = float64(step*n + i)
			y[i] = -x[i]
		}
		if err := w.WriteStep(step, x, y, nil, nil); err != nil {
			t.Fatalf("WriteStep(%d): %v", step, err)
		}
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rp := rd.Replayer()
	if err := rp.Seek(10); err != nil {
		t.Fatalf("Seek(10): %v", err)
	}
	if rp.X()[3] != float64(10*n+3) {
		t.Fatalf("Seek(10): X[3] = %v, want %v", rp.X()[3], float64(10*n+3))
	}
}

// TestTornTail mirrors internal/checkpoint's crash discipline: any
// truncation of the file (mid-header or mid-payload of the last frame)
// must open cleanly with the torn frame dropped, never error.
func TestTornTail(t *testing.T) {
	const n, steps = 16, 40
	run := makeRun(t, n, steps, true, 21)
	data := writeRun(t, run, n, 8)
	full, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader(full): %v", err)
	}
	wantFrames := full.Frames()
	// Find where frames start so truncation never cuts into the header.
	headerEnd := len(data)
	for cut := len(data) - 1; cut > 0; cut-- {
		rd, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			headerEnd = cut + 1
			break
		}
		if rd.Frames() > wantFrames {
			t.Fatalf("truncated to %d bytes: more frames (%d) than the full file (%d)", cut, rd.Frames(), wantFrames)
		}
	}
	for trial := 0; trial < 200; trial++ {
		cut := headerEnd + trial*(len(data)-headerEnd)/200
		rd, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("truncated to %d bytes (frames from %d): %v", cut, headerEnd, err)
		}
		rp := rd.Replayer()
		frames := 0
		for {
			if err := rp.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("truncated to %d bytes: Next: %v", cut, err)
			}
			frames++
		}
		if frames != rd.Frames() {
			t.Fatalf("truncated to %d bytes: replayed %d of %d frames", cut, frames, rd.Frames())
		}
	}
}

// TestCorruptionDetected: flipping a byte inside a committed frame's
// payload must be a hard error (at scan time), unlike a torn tail.
func TestCorruptionDetected(t *testing.T) {
	const n, steps = 16, 40
	run := makeRun(t, n, steps, true, 22)
	data := writeRun(t, run, n, 8)
	// Corrupt a byte well inside the frame region, away from the tail.
	corrupt := append([]byte(nil), data...)
	pos := len(corrupt) / 2
	corrupt[pos] ^= 0x40
	if _, err := NewReader(bytes.NewReader(corrupt)); err == nil {
		t.Fatalf("mid-file corruption at byte %d not detected", pos)
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, RunInfo{N: 0}); err == nil {
		t.Fatal("NewWriter accepted N = 0")
	}
	w, err := NewWriter(&buf, RunInfo{N: 4})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.WriteStep(0, make([]float64, 3), make([]float64, 4), nil, nil); err == nil {
		t.Fatal("WriteStep accepted short x column")
	}
	if err := w.WriteStep(0, make([]float64, 4), make([]float64, 4), nil, []int32{1}); err == nil {
		t.Fatal("WriteStep accepted newly without informed")
	}
}

// TestWriterZeroAlloc: the steady state (delta frames and keyframes alike,
// after buffers have grown) must not allocate.
func TestWriterZeroAlloc(t *testing.T) {
	const n = 4096
	run := makeRun(t, n, 2, true, 31)
	w, err := NewWriter(io.Discard, RunInfo{N: n, KeyframeEvery: 4})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	// Warm up: grow the assembly buffer through a keyframe and a delta.
	for i, step := range run.steps {
		if err := w.WriteStep(step, run.x[i], run.y[i], run.informed[i], run.newly[i]); err != nil {
			t.Fatalf("WriteStep: %v", err)
		}
	}
	last := len(run.steps) - 1
	step := run.steps[last]
	allocs := testing.AllocsPerRun(100, func() {
		step++
		if err := w.WriteStep(step, run.x[last], run.y[last], run.informed[last], run.newly[last]); err != nil {
			t.Fatalf("WriteStep: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("writer steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// appendFrameHeader appends a raw frame header (kind, step, payload
// length, CRC) to a trace image.
func appendFrameHeader(b []byte, kind byte, step, plen, crc uint32) []byte {
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, step)
	b = binary.LittleEndian.AppendUint32(b, plen)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// A frame header claiming a payload far past the end of the stream is a
// torn tail: NewReader drops it without allocating a buffer of the
// claimed size.
func TestHugePayloadLengthIsTornTail(t *testing.T) {
	const n = 16
	data := writeRun(t, makeRun(t, n, 5, true, 23), n, 8)
	clean, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader(clean): %v", err)
	}
	last := clean.frames[len(clean.frames)-1].step
	data = appendFrameHeader(data, kindDelta, last+1, 0xFFFFFFFF, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rd, err := NewReader(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if rd.Frames() != clean.Frames() {
		t.Fatalf("Frames() = %d, want %d (the bogus frame dropped)", rd.Frames(), clean.Frames())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("NewReader allocated %d bytes for a bogus frame header, want at most 1 MiB", got)
	}
}

// A fully present payload longer than any frame of N agents can be is
// corruption, not a torn tail.
func TestOversizedPayloadIsCorruption(t *testing.T) {
	const n = 4
	data := writeRun(t, makeRun(t, n, 3, false, 24), n, 8)
	const plen = 4096
	data = appendFrameHeader(data, kindKey, 3, plen, 0)
	data = append(data, make([]byte, plen)...)
	if _, err := NewReader(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "payload length") {
		t.Fatalf("NewReader = %v, want a payload length error", err)
	}
}

// headerOnly returns a trace image holding just the magic and a header
// that declares n agents.
func headerOnly(n int64) []byte {
	hdr := fmt.Sprintf(`{"schema":%q,"n":%d}`, Schema, n)
	b := append([]byte(magic), binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))...)
	return append(b, hdr...)
}

// A header's N sizes nothing on its own: a header-only trace declaring
// 2^40 agents opens and replays zero frames without allocating anything
// near N.
func TestHeaderNSizesNothing(t *testing.T) {
	data := headerOnly(1 << 40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rp := rd.Replayer()
	err = rp.Next()
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("Next = %v, want io.EOF", err)
	}
	if rd.Frames() != 0 {
		t.Fatalf("Frames() = %d, want 0", rd.Frames())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("opening and replaying a header-only trace allocated %d bytes, want at most 1 MiB", got)
	}
}

// A keyframe shorter than its two raw N-entry columns is corruption: a
// header declaring 2^30 agents cannot be backed by a small CRC-valid
// keyframe.
func TestShortKeyframeIsCorruption(t *testing.T) {
	data := headerOnly(1 << 30)
	payload := make([]byte, 1+16*4)
	data = appendFrameHeader(data, kindKey, 0, uint32(len(payload)), crc32.Checksum(payload, castagnoli))
	data = append(data, payload...)
	if _, err := NewReader(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "too short") {
		t.Fatalf("NewReader = %v, want a short keyframe error", err)
	}
}

var errSinkFailed = errors.New("sink failed")

// failOnceSink passes writes through to buf, except that its failAt-th
// Write (counting from 1; the header is the first) stores only the first
// half of its bytes and fails. Later writes succeed again.
type failOnceSink struct {
	buf    bytes.Buffer
	writes int
	failAt int
}

func (s *failOnceSink) Write(p []byte) (int, error) {
	s.writes++
	if s.writes == s.failAt {
		n, _ := s.buf.Write(p[:len(p)/2])
		return n, errSinkFailed
	}
	return s.buf.Write(p)
}

// TestWriteErrorIsSticky: after a failed frame Write, retrying that step
// and writing later ones must keep failing. A retry that succeeded would
// encode zero deltas against positions the trace never received and
// replay the previous frame's positions under the retried step, with
// every CRC intact. The frames before the failure must still replay
// exactly, the torn one dropped.
func TestWriteErrorIsSticky(t *testing.T) {
	const n, steps, failed = 16, 8, 3
	run := makeRun(t, n, steps, true, 41)
	sink := &failOnceSink{failAt: 2 + failed}
	w, err := NewWriter(sink, RunInfo{N: n, KeyframeEvery: 64})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < failed; i++ {
		if err := w.WriteStep(run.steps[i], run.x[i], run.y[i], run.informed[i], run.newly[i]); err != nil {
			t.Fatalf("WriteStep(%d): %v", run.steps[i], err)
		}
	}
	for i := failed; i < len(run.steps); i++ {
		// Retry the failed step once, then move on.
		for _, j := range []int{failed, i} {
			err := w.WriteStep(run.steps[j], run.x[j], run.y[j], run.informed[j], run.newly[j])
			if !errors.Is(err, errSinkFailed) {
				t.Fatalf("WriteStep(%d) after the failed write: %v, want %v", run.steps[j], err, errSinkFailed)
			}
		}
	}
	if w.Frames() != failed {
		t.Fatalf("Frames() = %d, want %d", w.Frames(), failed)
	}
	committed := synthRun{
		steps: run.steps[:failed], x: run.x[:failed], y: run.y[:failed],
		informed: run.informed[:failed], newly: run.newly[:failed],
	}
	checkReplay(t, sink.buf.Bytes(), committed, n)
}
