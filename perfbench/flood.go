package main

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	manhattan "manhattanflood"
	"manhattanflood/internal/cells"
	"manhattanflood/internal/core"
	"manhattanflood/internal/kernel"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/tracev2"
)

// floodSpec fixes the inputs of a whole-flood workload; only the world
// seed of each flood comes from the run seed.
type floodSpec struct {
	n              int
	l, r, v, pause float64
	tiles, workers int
	source         manhattan.Source
	record         bool // attach a trace Recorder writing to a temp file
	maxSteps       int
	minFloods      int
}

// sparse100k is the paper's sparse regime below connectivity at 100k
// agents on the tiled, two-worker world.
var sparse100k = floodSpec{
	n: 100_000, l: 2 * math.Sqrt(100_000), r: 4, v: 0.1,
	tiles: 4, workers: 2, source: manhattan.SourceCenter,
	maxSteps: 20_000, minFloods: 5,
}

// paused20k floods a paused-MRWP world from the Suburb corner while a
// Recorder writes the trace.
var paused20k = floodSpec{
	n: 20_000, l: math.Sqrt(20_000), r: 2, v: 0.1, pause: 20,
	source: manhattan.SourceCorner, record: true,
	maxSteps: 20_000, minFloods: 10,
}

func (fs floodSpec) config(seed uint64, workers int) manhattan.Config {
	return manhattan.Config{N: fs.n, L: fs.l, R: fs.r, V: fs.v, Seed: seed,
		Workers: workers, Tiles: fs.tiles, Pause: fs.pause}
}

func (fs floodSpec) params(seed uint64) sim.Params {
	return sim.Params{N: fs.n, L: fs.l, R: fs.r, V: fs.v, Seed: seed,
		Workers: fs.workers, Tiles: fs.tiles}
}

func (fs floodSpec) factory() sim.ModelFactory {
	if fs.pause > 0 {
		return sim.PausedMRWPFactory(fs.pause)
	}
	return sim.MRWPFactory()
}

// floodSeed is the world seed of the k-th flood of a run.
func floodSeed(runSeed uint64, k int) uint64 { return runSeed*1_000_003 + uint64(k) }

// facadeFlood is one user-visible flood through the public API:
// construction (the set-up), then Simulation.Flood (the timed op). With
// record set, a Recorder streams the trace to a file in the run's scratch
// directory, which the caller verifies and deletes.
type facadeFlood struct {
	res       manhattan.FloodResult
	setup     time.Duration
	wall      time.Duration
	tracePath string
	traceSize int64
}

func (r *run) facadeFlood(fs floodSpec, seed uint64, workers int) (facadeFlood, error) {
	var out facadeFlood
	t0 := time.Now()
	s, err := manhattan.New(fs.config(seed, workers))
	if err != nil {
		return out, err
	}
	var f *os.File
	var bw *bufio.Writer
	if fs.record {
		out.tracePath = filepath.Join(r.dir, fmt.Sprintf("facade-%d.trace", seed))
		if f, err = os.Create(out.tracePath); err != nil {
			return out, err
		}
		defer f.Close()
		bw = bufio.NewWriter(f)
		rec, err := manhattan.NewRecorder(bw, s, manhattan.RecordOptions{})
		if err != nil {
			return out, err
		}
		s.Attach(rec)
	}
	t1 := time.Now()
	out.res, err = s.Flood(manhattan.FloodOptions{Source: fs.source, MaxSteps: fs.maxSteps, TrackZones: true})
	if bw != nil && err == nil {
		err = bw.Flush()
	}
	t2 := time.Now()
	out.setup, out.wall = t1.Sub(t0), t2.Sub(t1)
	if err != nil {
		return out, err
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return out, err
		}
		st, err := os.Stat(out.tracePath)
		if err != nil {
			return out, err
		}
		out.traceSize = st.Size()
	}
	return out, nil
}

// checkFlood counts the flood and its output checks: completed, every
// agent informed, and (when recorded) a trace that replays to the
// recorded step count and the full informed set.
func (r *run) checkFlood(fs floodSpec, seed uint64, ff facadeFlood) {
	r.check(ff.res.Completed && ff.res.Informed == fs.n,
		"flood seed %d: completed=%v informed=%d of %d", seed, ff.res.Completed, ff.res.Informed, fs.n)
	if !fs.record {
		return
	}
	frames, last, informed, err := r.replayTrace(ff.tracePath, nil)
	r.check(err == nil && frames == ff.res.Time+1 && last == ff.res.Time && informed == fs.n,
		"trace seed %d: replay err=%v frames=%d last=%d informed=%d, want %d frames to step %d with %d informed",
		seed, err, frames, last, informed, ff.res.Time+1, ff.res.Time, fs.n)
}

// replayTrace opens a trace with OpenReplay and reads every frame,
// returning the frame count, the last step and the informed count of the
// last frame. A non-nil wantInformed must equal the final informed set.
func (r *run) replayTrace(path string, wantInformed []bool) (frames, last, informed int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	id := r.tr.begin("tracev2.replay")
	rp, err := manhattan.OpenReplay(f)
	if err != nil {
		r.tr.end(id)
		return 0, 0, 0, err
	}
	var v manhattan.StepView
	for {
		if err = rp.Next(); err != nil {
			break
		}
		frames++
		v = rp.View()
	}
	r.tr.end(id)
	if !errors.Is(err, io.EOF) {
		return frames, 0, 0, err
	}
	for i, inf := range v.Informed {
		if inf {
			informed++
		}
		if wantInformed != nil && inf != wantInformed[i] {
			return frames, v.Step, informed, fmt.Errorf("replayed informed set differs at agent %d", i)
		}
	}
	return frames, v.Step, informed, nil
}

// floodLoop runs facade floods until the budget is spent (and at least
// fs.minFloods), then reports the end-to-end metrics.
func (r *run) floodLoop(fs floodSpec) error {
	var setups, walls []time.Duration
	var agentSteps, traceBytes, frames float64
	end := r.deadline()
	for k := 0; k < fs.minFloods || time.Now().Before(end); k++ {
		seed := floodSeed(r.seed, k)
		ff, err := r.facadeFlood(fs, seed, fs.workers)
		r.attempted++
		if err != nil {
			r.fail("flood seed %d: %v", seed, err)
			continue
		}
		r.checkFlood(fs, seed, ff)
		if ff.tracePath != "" {
			os.Remove(ff.tracePath)
			traceBytes += float64(ff.traceSize)
			frames += float64(ff.res.Time + 1)
		}
		setups = append(setups, ff.setup)
		walls = append(walls, ff.wall)
		agentSteps += float64(fs.n * ff.res.Time)
	}
	r.endToEnd(setups, walls, len(walls), agentSteps, sumDur(walls))
	r.note("flood_s\t%.6g\ts\t(median of %d floods)", durQuantile(walls, 0.5), len(walls))
	if fs.record {
		r.note("trace_bytes_per_agent_step\t%.6g\tB", traceBytes/(frames*float64(fs.n)))
	}
	return nil
}

// endToEnd sets the end-to-end metrics every workload reports: set-up
// median, per-job latency median, and trial and agent-step throughput
// over the busy time. The p90 is printed with its sample count but left
// out of the result: only floodd_durable runs enough jobs for it to be
// steady.
func (r *run) endToEnd(setups, jobs []time.Duration, trials int, agentSteps float64, busy time.Duration) {
	if len(jobs) == 0 || busy <= 0 {
		return
	}
	r.set("setup_s", durQuantile(setups, 0.5), "s")
	r.set("job_s_p50", durQuantile(jobs, 0.5), "s")
	r.set("trials_per_s", float64(trials)/busy.Seconds(), "1/s")
	r.set("agent_steps_per_s", agentSteps/busy.Seconds(), "1/s")
	r.note("job_s_p90\t%.6g\ts\t(%d jobs)", durQuantile(jobs, 0.9), len(jobs))
	r.note("samples\tsetup=%d jobs=%d trials=%d busy_s=%.3f", len(setups), len(jobs), trials, busy.Seconds())
}

func floodSparse(r *run) error { return r.floodLoop(sparse100k) }
func floodPaused(r *run) error { return r.floodLoop(paused20k) }

// timedWriter measures the time spent inside the wrapped writer: the
// trace's write cost, as opposed to its encode cost.
type timedWriter struct {
	w  io.Writer
	ns int64
}

func (tw *timedWriter) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := tw.w.Write(p)
	tw.ns += int64(time.Since(t))
	return n, err
}

// directFlood drives sim.NewWorld + core.NewFlooding step by step with
// spans around every call, the world-step boundary stamped through
// World.SetStepHook, and the twin splitting each world step into layers.
// It returns what the facade reports, so the caller can check the two
// runs agree.
type directFlood struct {
	time, czTime, informed int
	frames                 int
	tracePath              string
	traceSize              int64
	finalInformed          []bool
}

func (r *run) directFlood(fs floodSpec, seed uint64) (directFlood, error) {
	var out directFlood
	tr := r.tr
	root := tr.begin("bench.flood")
	defer tr.end(root)

	p := fs.params(seed)
	id := tr.begin("sim.new_world")
	w, err := sim.NewWorld(p, fs.factory())
	tr.end(id)
	if err != nil {
		return out, err
	}
	id = tr.begin("cells.partition")
	part, err := cells.NewPartition(p.L, p.R, p.N)
	tr.end(id)
	if err != nil {
		return out, err
	}

	id = tr.begin("bench.twin")
	model, err := fs.factory()(mobilityConfig(p))
	if err != nil {
		tr.end(id)
		return out, err
	}
	tw, err := newTwin(p, model)
	if err == nil {
		tw.reset(tr, seed)
		err = tw.guard(w, false)
	}
	tr.end(id)
	if err != nil {
		return out, err
	}

	id = tr.begin("core.source_pair")
	central, corner := core.SourcePair(w)
	tr.end(id)
	source := central
	if fs.source == manhattan.SourceCorner {
		source = corner
	}
	id = tr.begin("core.new_flooding")
	f, err := core.NewFlooding(w, source, core.WithPartition(part))
	tr.end(id)
	if err != nil {
		return out, err
	}

	var tw2 *tracev2.Writer
	var sink *timedWriter
	var bw *bufio.Writer
	var file *os.File
	if fs.record {
		out.tracePath = filepath.Join(r.dir, fmt.Sprintf("direct-%d.trace", seed))
		if file, err = os.Create(out.tracePath); err != nil {
			return out, err
		}
		defer file.Close()
		bw = bufio.NewWriter(file)
		sink = &timedWriter{w: bw}
		id = tr.begin("tracev2.new_writer")
		tw2, err = tracev2.NewWriter(sink, tracev2.RunInfo{
			N: fs.n, L: fs.l, R: fs.r, V: fs.v, Seed: seed,
			Model: manhattan.MRWP.String(), Workers: fs.workers, Tiles: fs.tiles,
			Pause: fs.pause, KernelPath: kernel.Path(),
		})
		tr.end(id)
		if err != nil {
			return out, err
		}
	}
	writeFrame := func() error {
		if tw2 == nil {
			return nil
		}
		before := sink.ns
		id := tr.begin("tracev2.write_step")
		err := tw2.WriteStep(w.Time(), w.X(), w.Y(), f.Informed(), f.LastStepNewlyInformed())
		now := tr.now()
		tr.add("tracev2.sink", now-(sink.ns-before), now)
		tr.end(id)
		out.frames++
		return err
	}

	if err := r.stepLoop(w, f, tw, fs.maxSteps, writeFrame); err != nil {
		return out, err
	}
	out.time, out.czTime, out.informed = w.Time(), f.CZInformedTime(), f.InformedCount()
	if fs.record {
		out.finalInformed = append([]bool(nil), f.Informed()...)
		if err := bw.Flush(); err != nil {
			return out, err
		}
		if err := file.Close(); err != nil {
			return out, err
		}
		st, err := os.Stat(out.tracePath)
		if err != nil {
			return out, err
		}
		out.traceSize = st.Size()
	}
	return out, nil
}

func fileHash(path string) ([32]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(data), nil
}

// floodTraced is the traced run of a flood workload. Per seed it runs the
// facade flood untraced (the tracing-overhead baseline), the direct
// traced drive with the twin guard, and — with speedup set — the facade
// flood again at Workers: 1.
func (r *run) floodTraced(fs floodSpec, speedup bool) error {
	var untraced, tracedProg time.Duration
	var speedups []float64
	var frames, traceBytes float64
	end := r.deadline()
	for k := 0; k < 2 || time.Now().Before(end); k++ {
		seed := floodSeed(r.seed, k)
		ff, err := r.facadeFlood(fs, seed, fs.workers)
		r.attempted++
		if err != nil {
			r.fail("facade flood seed %d: %v", seed, err)
			continue
		}
		r.checkFlood(fs, seed, ff)
		df, err := r.directFlood(fs, seed)
		r.attempted++
		if err != nil {
			r.fail("traced flood seed %d: %v", seed, err)
			continue
		}
		r.check(df.time == ff.res.Time && df.czTime == ff.res.CZTime && df.informed == ff.res.Informed,
			"seed %d: traced drive gives time=%d cz=%d informed=%d, facade time=%d cz=%d informed=%d",
			seed, df.time, df.czTime, df.informed, ff.res.Time, ff.res.CZTime, ff.res.Informed)
		untraced += ff.wall
		if fs.record {
			hf, err1 := fileHash(ff.tracePath)
			hd, err2 := fileHash(df.tracePath)
			r.check(err1 == nil && err2 == nil && hf == hd,
				"seed %d: traced drive's trace differs from the Recorder's (%v, %v)", seed, err1, err2)
			nf, last, inf, err := r.replayTrace(df.tracePath, df.finalInformed)
			r.check(err == nil && nf == df.frames && last == df.time && inf == df.informed,
				"seed %d: direct trace replay err=%v frames=%d/%d last=%d/%d", seed, err, nf, df.frames, last, df.time)
			os.Remove(ff.tracePath)
			os.Remove(df.tracePath)
			frames += float64(df.frames)
			traceBytes += float64(df.traceSize)
		}
		if speedup {
			one, err := r.facadeFlood(fs, seed, 1)
			r.attempted++
			if err != nil {
				r.fail("Workers: 1 flood seed %d: %v", seed, err)
				continue
			}
			r.check(one.res.Time == ff.res.Time && one.res.CZTime == ff.res.CZTime && one.res.Informed == ff.res.Informed,
				"seed %d: Workers: 1 flood differs from Workers: %d", seed, fs.workers)
			speedups = append(speedups, one.wall.Seconds()/ff.wall.Seconds())
		}
	}
	for _, d := range r.tr.programDurs("core.run") {
		tracedProg += time.Duration(d)
	}
	for _, name := range []string{"core.source_pair", "core.new_flooding"} {
		for _, d := range r.tr.programDurs(name) {
			tracedProg += time.Duration(d)
		}
	}

	st := r.tr.stats()
	r.layerWorld(st, fs.n)
	if len(speedups) > 0 {
		r.set("sim.workers_speedup", quantile(speedups, 0.5), "x")
	}
	if fs.record {
		perAgentFrame := frames * float64(fs.n)
		r.set("tracev2.encode_ns_per_agent_step", float64(st.self("tracev2.write_step"))/perAgentFrame, "ns")
		r.set("tracev2.write_ns_per_agent_step", float64(st.total("tracev2.sink"))/perAgentFrame, "ns")
		r.set("tracev2.replay_ns_per_agent_step", float64(st.total("tracev2.replay"))/(2*perAgentFrame), "ns")
		r.set("tracev2.bytes_per_agent_step", traceBytes/perAgentFrame, "B")
	}
	r.set("unattributed_share", 1-float64(layerSelf(st))/float64(st.total("bench.flood")+st.total("tracev2.replay")), "ratio")
	r.set("tracing_overhead", tracedProg.Seconds()/untraced.Seconds(), "x")
	r.finishLayers()
	return nil
}

func floodSparseTraced(r *run) error { return r.floodTraced(sparse100k, true) }
func floodPausedTraced(r *run) error { return r.floodTraced(paused20k, false) }
