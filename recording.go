package manhattan

import (
	"fmt"
	"io"

	"manhattanflood/internal/kernel"
	"manhattanflood/internal/tracev2"
)

// RecordOptions configures a trace Recorder.
type RecordOptions struct {
	// KeyframeEvery is the self-contained-frame interval: larger values
	// shrink the trace (more delta frames), smaller values speed up
	// Replay.Seek and shrink the blast radius of a corrupt frame.
	// 0 means the format default (64).
	KeyframeEvery int
}

// Recorder is an Observer that streams every observed step to a columnar
// trace (the internal/tracev2 format): delta-encoded position columns,
// the informed set for flooding steps, and a header carrying the full
// Config + seed + kernel path, so OpenReplay can reconstruct any recorded
// step bit-exactly without re-running mobility.
//
// Usage:
//
//	rec, err := manhattan.NewRecorder(f, sim, manhattan.RecordOptions{})
//	sim.Attach(rec)
//	res, err := sim.Flood(manhattan.FloodOptions{...})
//	sim.Detach()
//
// The recorder writes through to the given io.Writer with one Write per
// step and no steady-state allocations; wrap slow destinations in a
// bufio.Writer (and flush it when done).
//
// A failed Write to the destination ends the recording: ObserveStep
// returns that error then and on every later call, so a run the
// recorder is attached to stops with it, and so does any later run it
// stays attached to. The trace keeps every frame written before the
// failure (a frame the failure cut short is a torn tail OpenReplay
// drops). To record again, create a new Recorder.
type Recorder struct {
	w *tracev2.Writer
}

// NewRecorder writes the trace header for s's configuration to out and
// returns the recorder, ready to Attach.
func NewRecorder(out io.Writer, s *Simulation, opts RecordOptions) (*Recorder, error) {
	cfg := s.Config()
	w, err := tracev2.NewWriter(out, tracev2.RunInfo{
		N: cfg.N, L: cfg.L, R: cfg.R, V: cfg.V, Seed: cfg.Seed,
		Model: cfg.Model.String(), Workers: cfg.Workers, Tiles: cfg.Tiles,
		Pause: cfg.Pause, KernelPath: kernel.Path(),
		KeyframeEvery: opts.KeyframeEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("manhattan: %w", err)
	}
	return &Recorder{w: w}, nil
}

// ObserveStep implements Observer by appending one frame.
func (r *Recorder) ObserveStep(v StepView) error {
	return r.w.WriteStep(v.Step, v.X, v.Y, v.Informed, v.NewlyInformed)
}

// Frames returns the number of frames recorded so far.
func (r *Recorder) Frames() int { return r.w.Frames() }

// TraceInfo is a recorded trace's header: the configuration of the run
// that wrote it.
type TraceInfo struct {
	N             int
	L, R, V       float64
	Seed          uint64
	Model         string
	Workers       int
	Tiles         int
	Pause         float64
	KernelPath    string
	KeyframeEvery int
}

// Replay reads a recorded trace and reconstructs per-step state
// bit-exactly. Frames are visited in order with Next or directly with
// Seek; the current frame is exposed as the same StepView an Observer
// saw when the trace was recorded.
type Replay struct {
	rd *tracev2.Reader
	rp *tracev2.Replayer
}

// OpenReplay scans the trace in r (validating every frame's checksum;
// a crash-torn trailing frame is dropped, mid-file corruption is an
// error) and returns a Replay positioned before the first frame.
func OpenReplay(r io.ReadSeeker) (*Replay, error) {
	rd, err := tracev2.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("manhattan: %w", err)
	}
	return &Replay{rd: rd, rp: rd.Replayer()}, nil
}

// Info returns the trace header.
func (r *Replay) Info() TraceInfo {
	in := r.rd.Info()
	return TraceInfo{
		N: in.N, L: in.L, R: in.R, V: in.V, Seed: in.Seed,
		Model: in.Model, Workers: in.Workers, Tiles: in.Tiles,
		Pause: in.Pause, KernelPath: in.KernelPath,
		KeyframeEvery: in.KeyframeEvery,
	}
}

// Frames returns the number of committed frames in the trace.
func (r *Replay) Frames() int { return r.rd.Frames() }

// Steps returns the first and last recorded step; ok is false for an
// empty trace.
func (r *Replay) Steps() (first, last int, ok bool) { return r.rd.Steps() }

// Next advances to the next frame, returning io.EOF after the last.
func (r *Replay) Next() error { return r.rp.Next() }

// Seek positions the replay exactly at the recorded step, decoding
// forward from the nearest keyframe. It errors when step was not
// recorded.
func (r *Replay) Seek(step int) error { return r.rp.Seek(step) }

// View returns the current frame as a StepView. Like the live view, its
// slices are owned by the Replay and rewritten by Next/Seek.
func (r *Replay) View() StepView {
	return StepView{
		Step:          r.rp.Step(),
		X:             r.rp.X(),
		Y:             r.rp.Y(),
		Informed:      r.rp.Informed(),
		NewlyInformed: r.rp.NewlyInformed(),
	}
}
