package manhattan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/kernel"
)

// capturingRecorder records the trace and simultaneously snapshots every
// view, giving the replay comparison a ground truth captured at the very
// same seam.
type capturingRecorder struct {
	rec *Recorder

	steps    []int
	xs, ys   [][]float64
	informed [][]bool
	newly    [][]int32
}

func (c *capturingRecorder) ObserveStep(v StepView) error {
	c.steps = append(c.steps, v.Step)
	c.xs = append(c.xs, append([]float64(nil), v.X...))
	c.ys = append(c.ys, append([]float64(nil), v.Y...))
	if v.Informed != nil {
		c.informed = append(c.informed, append([]bool(nil), v.Informed...))
		c.newly = append(c.newly, append([]int32(nil), v.NewlyInformed...))
	} else {
		c.informed = append(c.informed, nil)
		c.newly = append(c.newly, nil)
	}
	return c.rec.ObserveStep(v)
}

// TestRecordReplayRoundTrip is the round-trip property test: a recorded
// flooding run must replay bit-identically — positions, informed set and
// the newly-informed discovery order — across the tiled/flat worlds,
// sequential/parallel stepping, and both index maintenance paths (V/R
// under the delta threshold and above it, forcing rebuilds).
func TestRecordReplayRoundTrip(t *testing.T) {
	for _, tiles := range []int{0, 4} {
		for _, workers := range []int{0, 4} {
			for _, v := range []float64{0.05, 0.5} { // delta path / rebuild path (R = 1)
				name := fmt.Sprintf("tiles=%d/workers=%d/v=%g", tiles, workers, v)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						N: 600, L: 24.5, R: 1, V: v, Seed: 42,
						Workers: workers, Tiles: tiles, Pause: 2,
					}
					sim, err := New(cfg)
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					var buf bytes.Buffer
					rec, err := NewRecorder(&buf, sim, RecordOptions{KeyframeEvery: 8})
					if err != nil {
						t.Fatalf("NewRecorder: %v", err)
					}
					cap := &capturingRecorder{rec: rec}
					sim.Attach(cap)
					res, err := sim.Flood(FloodOptions{Source: SourceCenter, MaxSteps: 2000})
					sim.Detach()
					if err != nil {
						t.Fatalf("Flood: %v", err)
					}
					if !res.Completed {
						t.Fatalf("flood did not complete in 2000 steps (informed %d/%d)", res.Informed, cfg.N)
					}
					if len(cap.steps) < 20 {
						t.Fatalf("only %d frames captured; want a multi-keyframe run", len(cap.steps))
					}
					checkReplayMatches(t, buf.Bytes(), cap, cfg.N)
				})
			}
		}
	}
}

func checkReplayMatches(t *testing.T, data []byte, cap *capturingRecorder, n int) {
	t.Helper()
	rp, err := OpenReplay(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("OpenReplay: %v", err)
	}
	if rp.Frames() != len(cap.steps) {
		t.Fatalf("replay has %d frames, recorded %d", rp.Frames(), len(cap.steps))
	}
	info := rp.Info()
	if info.N != n {
		t.Fatalf("replay header N = %d, want %d", info.N, n)
	}
	for i := range cap.steps {
		if err := rp.Next(); err != nil {
			t.Fatalf("Next at frame %d: %v", i, err)
		}
		v := rp.View()
		if v.Step != cap.steps[i] {
			t.Fatalf("frame %d: step %d, want %d", i, v.Step, cap.steps[i])
		}
		for j := 0; j < n; j++ {
			if math.Float64bits(v.X[j]) != math.Float64bits(cap.xs[i][j]) ||
				math.Float64bits(v.Y[j]) != math.Float64bits(cap.ys[i][j]) {
				t.Fatalf("step %d agent %d: replayed (%v, %v), recorded (%v, %v)",
					v.Step, j, v.X[j], v.Y[j], cap.xs[i][j], cap.ys[i][j])
			}
		}
		if cap.informed[i] == nil {
			if v.Informed != nil {
				t.Fatalf("step %d: replay has informed state, recording did not", v.Step)
			}
			continue
		}
		for j := range cap.informed[i] {
			if v.Informed[j] != cap.informed[i][j] {
				t.Fatalf("step %d agent %d: informed %v, want %v", v.Step, j, v.Informed[j], cap.informed[i][j])
			}
		}
		if len(v.NewlyInformed) != len(cap.newly[i]) {
			t.Fatalf("step %d: %d newly informed, want %d", v.Step, len(v.NewlyInformed), len(cap.newly[i]))
		}
		for k := range v.NewlyInformed {
			if v.NewlyInformed[k] != cap.newly[i][k] {
				t.Fatalf("step %d: newly[%d] = %d, want %d (discovery order must round-trip)",
					v.Step, k, v.NewlyInformed[k], cap.newly[i][k])
			}
		}
	}
	if err := rp.Next(); err != io.EOF {
		t.Fatalf("Next past end: %v, want io.EOF", err)
	}
	// Random access must agree with the sequential decode.
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 20; trial++ {
		i := rng.IntN(len(cap.steps))
		if err := rp.Seek(cap.steps[i]); err != nil {
			t.Fatalf("Seek(%d): %v", cap.steps[i], err)
		}
		v := rp.View()
		for j := 0; j < n; j++ {
			if v.X[j] != cap.xs[i][j] || v.Y[j] != cap.ys[i][j] {
				t.Fatalf("Seek(%d) agent %d: wrong position", cap.steps[i], j)
			}
		}
	}
}

// TestRecordTornTail: truncating a recorded flood trace anywhere inside
// the frame region must still open, with the torn frame dropped —
// internal/checkpoint's crash discipline at the public surface.
func TestRecordTornTail(t *testing.T) {
	sim, err := New(Config{N: 200, L: 14.1, R: 3, V: 0.3, Seed: 9})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, sim, RecordOptions{KeyframeEvery: 4})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	sim.Attach(rec)
	if _, err := sim.Flood(FloodOptions{MaxSteps: 200}); err != nil {
		t.Fatalf("Flood: %v", err)
	}
	sim.Detach()
	data := buf.Bytes()
	full, err := OpenReplay(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("OpenReplay(full): %v", err)
	}
	if full.Frames() < 5 {
		t.Fatalf("trace too short (%d frames) to exercise truncation", full.Frames())
	}
	for cut := len(data) - 1; cut > len(data)-200 && cut > 0; cut-- {
		rp, err := OpenReplay(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("truncated to %d bytes: %v", cut, err)
		}
		if rp.Frames() > full.Frames() {
			t.Fatalf("truncated trace has more frames than the full one")
		}
	}
	// Mid-file corruption, by contrast, must fail loudly.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x10
	if _, err := OpenReplay(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("mid-file corruption not detected")
	}
}

// TestRecordDowngradeMidFloodSameBytes pins the trace writer's half of
// the kernel bit-identity contract: a paused flood recorded on the
// assembly encode path, on the portable one, and with SetGeneric flipped
// halfway through the flood writes the same frames byte for byte. Only
// the header differs, by its kernel_path provenance field. Where the CPU
// lacks the assembly kernels (or under -tags purego) all three take the
// portable path and the test is a determinism check.
func TestRecordDowngradeMidFloodSameBytes(t *testing.T) {
	defer kernel.SetGeneric(false)
	cfg := Config{N: 800, L: 28.3, R: 1, V: 0.1, Pause: 4, Seed: 17}
	record := func(generic bool, flipAt int) (frames []byte, n int) {
		t.Helper()
		kernel.SetGeneric(generic)
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var buf bytes.Buffer
		rec, err := NewRecorder(&buf, sim, RecordOptions{})
		if err != nil {
			t.Fatalf("NewRecorder: %v", err)
		}
		sim.Attach(observerFunc(func(v StepView) error {
			if rec.Frames() == flipAt {
				kernel.SetGeneric(true)
			}
			return rec.ObserveStep(v)
		}))
		_, err = sim.Flood(FloodOptions{Source: SourceCorner, MaxSteps: 400})
		sim.Detach()
		if err != nil {
			t.Fatalf("Flood: %v", err)
		}
		data := buf.Bytes()
		return data[len("MFTRACE2")+4+int(binary.LittleEndian.Uint32(data[8:])):], rec.Frames()
	}
	generic, n := record(true, -1)
	if n < 100 {
		t.Fatalf("only %d frames; want a flood long enough to flip mid-run", n)
	}
	t.Logf("%d frames, flipped at %d", n, n/2)
	active, _ := record(false, -1)
	mixed, _ := record(false, n/2)
	if kernel.Path() != "generic" {
		t.Fatalf("SetGeneric(true) at frame %d did not take: path %s", n/2, kernel.Path())
	}
	for _, c := range []struct {
		name string
		got  []byte
	}{{"active path", active}, {"flipped at frame " + fmt.Sprint(n/2), mixed}} {
		if !bytes.Equal(c.got, generic) {
			i := 0
			for i < min(len(c.got), len(generic)) && c.got[i] == generic[i] {
				i++
			}
			t.Fatalf("%s: frames differ from the generic-only recording at byte %d of %d/%d", c.name, i, len(c.got), len(generic))
		}
	}
}

// TestObserverPositionsOnlyPaths: plain Step and FloodTree emit
// position-only views through the attached observer.
func TestObserverPositionsOnlyPaths(t *testing.T) {
	sim, err := New(Config{N: 100, L: 10, R: 3, V: 0.3, Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, sim, RecordOptions{})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	cap := &capturingRecorder{rec: rec}
	sim.Attach(cap)
	for i := 0; i < 5; i++ {
		sim.Step()
	}
	if _, err := sim.FloodTree(FloodOptions{MaxSteps: 50}); err != nil {
		t.Fatalf("FloodTree: %v", err)
	}
	sim.Detach()
	if len(cap.steps) < 6 {
		t.Fatalf("captured %d frames, want Step + FloodTree emissions", len(cap.steps))
	}
	for i, inf := range cap.informed {
		if inf != nil {
			t.Fatalf("frame %d: world-only path carried informed state", i)
		}
	}
	checkReplayMatches(t, buf.Bytes(), cap, 100)
}

// TestObserverErrorAbortsFlood: a failing observer stops a Flood run at
// the step boundary with the error surfaced.
func TestObserverErrorAbortsFlood(t *testing.T) {
	sim, err := New(Config{N: 200, L: 14.1, R: 3, V: 0.3, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	boom := errors.New("observer boom")
	calls := 0
	sim.Attach(observerFunc(func(v StepView) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	}))
	_, err = sim.Flood(FloodOptions{MaxSteps: 100})
	if !errors.Is(err, boom) {
		t.Fatalf("Flood error = %v, want %v", err, boom)
	}
	if calls != 3 {
		t.Fatalf("observer called %d times, want 3", calls)
	}
}

// TestObserverErrorStopsEveryRun: an observer error stops FloodTree and
// every RunProtocol variant at the step boundary, exactly as it stops
// Flood: the run returns the error after the failing view, the world
// stops at that step, and nothing is left sticky. Plain Step, which has
// no result to return the error with, keeps it sticky: it emits nothing
// more and ObserverErr reports it until the next Attach.
func TestObserverErrorStopsEveryRun(t *testing.T) {
	const failAt = 3
	boom := errors.New("observer boom")
	cfg := Config{N: 200, L: 20, R: 1.5, V: 0.2, Seed: 5}
	failing := func(calls *int) Observer {
		return observerFunc(func(StepView) error {
			if *calls++; *calls == failAt {
				return boom
			}
			return nil
		})
	}
	for _, tc := range []struct {
		name string
		run  func(s *Simulation) error
	}{
		{"FloodTree", func(s *Simulation) error {
			_, err := s.FloodTree(FloodOptions{MaxSteps: 100})
			return err
		}},
		{"RunProtocol/flooding", func(s *Simulation) error {
			_, err := s.RunProtocol(ProtocolOptions{Protocol: Flooding, MaxSteps: 100})
			return err
		}},
		{"RunProtocol/parsimonious", func(s *Simulation) error {
			_, err := s.RunProtocol(ProtocolOptions{Protocol: Parsimonious, MaxSteps: 100})
			return err
		}},
		{"RunProtocol/gossip", func(s *Simulation) error {
			_, err := s.RunProtocol(ProtocolOptions{Protocol: Gossip, MaxSteps: 100})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			calls := 0
			sim.Attach(failing(&calls))
			if err := tc.run(sim); !errors.Is(err, boom) {
				t.Fatalf("error = %v, want %v", err, boom)
			}
			if calls != failAt || sim.Time() != failAt {
				t.Fatalf("stopped after %d views at time %d, want %d views at time %d", calls, sim.Time(), failAt, failAt)
			}
			if err := sim.ObserverErr(); err != nil {
				t.Fatalf("a run left a sticky observer error: %v", err)
			}
		})
	}

	sim, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	calls := 0
	sim.Attach(failing(&calls))
	for i := 0; i < 2*failAt; i++ {
		sim.Step()
	}
	if calls != failAt || !errors.Is(sim.ObserverErr(), boom) {
		t.Fatalf("Step: %d views, ObserverErr %v; want %d views and %v", calls, sim.ObserverErr(), failAt, boom)
	}
	sim.Detach()
	if !errors.Is(sim.ObserverErr(), boom) {
		t.Fatalf("ObserverErr after Detach = %v, want %v", sim.ObserverErr(), boom)
	}
	sim.Attach(failing(&calls))
	if sim.ObserverErr() != nil {
		t.Fatalf("ObserverErr after Attach = %v, want nil", sim.ObserverErr())
	}
	sim.Step()
	if calls != failAt+1 {
		t.Fatalf("Step after Attach: %d views, want %d", calls, failAt+1)
	}
}

var errSinkFailed = errors.New("sink failed")

// failOnceWriter passes writes through to buf, except that its failAt-th
// Write (counting from 1; the header is the first) stores only the first
// half of its bytes and fails. Later writes succeed again.
type failOnceWriter struct {
	buf    bytes.Buffer
	writes int
	failAt int
}

func (w *failOnceWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == w.failAt {
		n, _ := w.buf.Write(p[:len(p)/2])
		return n, errSinkFailed
	}
	return w.buf.Write(p)
}

// TestRecorderWriteErrorIsSticky: a Flood whose trace destination fails a
// write returns the error, and running Flood again with the recorder
// still attached must fail the same way. The second run's start frame
// lands on the failed frame's step; recording it would encode zero deltas
// against positions the trace never received and silently replay the
// previous step's positions. The frames written before the failure
// replay exactly.
func TestRecorderWriteErrorIsSticky(t *testing.T) {
	const n, committed = 200, 2
	sim, err := New(Config{N: n, L: 14.1, R: 3, V: 0.3, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sink := &failOnceWriter{failAt: 2 + committed}
	rec, err := NewRecorder(sink, sim, RecordOptions{})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	cap := &capturingRecorder{rec: rec}
	sim.Attach(cap)
	for run := 1; run <= 2; run++ {
		if _, err := sim.Flood(FloodOptions{MaxSteps: 100}); !errors.Is(err, errSinkFailed) {
			t.Fatalf("Flood run %d: error %v, want %v", run, err, errSinkFailed)
		}
	}
	sim.Detach()
	if rec.Frames() != committed {
		t.Fatalf("recorder committed %d frames, want %d", rec.Frames(), committed)
	}
	cap.steps, cap.xs, cap.ys = cap.steps[:committed], cap.xs[:committed], cap.ys[:committed]
	cap.informed, cap.newly = cap.informed[:committed], cap.newly[:committed]
	checkReplayMatches(t, sink.buf.Bytes(), cap, n)
}

// observerFunc adapts a function to the Observer interface.
type observerFunc func(StepView) error

func (f observerFunc) ObserveStep(v StepView) error { return f(v) }

// TestSourceExplicitAgentZero: SourceExplicit makes agent 0 selectable,
// and a SourceAgent without SourceExplicit is rejected, whatever its sign.
func TestSourceExplicitAgentZero(t *testing.T) {
	sim, err := New(Config{N: 100, L: 10, R: 3, V: 0.3, Seed: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := sim.Flood(FloodOptions{Source: SourceExplicit, SourceAgent: 0, MaxSteps: 100})
	if err != nil {
		t.Fatalf("Flood: %v", err)
	}
	if res.Source != 0 {
		t.Fatalf("explicit source 0 resolved to agent %d", res.Source)
	}
	// A SourceAgent without SourceExplicit no longer overrides the
	// placement, nor is it silently ignored.
	for _, id := range []int{7, -7} {
		if _, err := sim.Flood(FloodOptions{SourceAgent: id, MaxSteps: 100}); err == nil {
			t.Fatalf("SourceAgent %d without SourceExplicit accepted", id)
		}
	}
	// Out-of-range explicit ids are rejected.
	if _, err := sim.Flood(FloodOptions{Source: SourceExplicit, SourceAgent: 100}); err == nil {
		t.Fatal("out-of-range explicit source accepted")
	}
}
