package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"time"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/core"
	"manhattanflood/internal/experiments"
	"manhattanflood/internal/sim"
)

// sweepWorkers is the RunSweep worker count of sweep_mc_2k: one per core.
const sweepWorkers = 2

// sweepDefaultTSVHash is the SHA-256 of the first sweep_mc_2k job's TSV at
// the default seed 1. A change to any layer that alters a flooding
// outcome changes it.
const sweepDefaultTSVHash = "003bbe9b3ee34fa6f983560e53dbe4a9233ce409fd8cd834a53d736515edbbe3"

// sweepSpec is the k-th RunSweep job of a sweep_mc_2k run: the radius grid
// crosses the delta/rebuild index switch between r=4 and r=8 (V/R = 5%).
func sweepSpec(runSeed uint64, k int) experiments.SweepSpec {
	return experiments.SweepSpec{
		Param: "r", Values: []float64{2, 4, 8, 16},
		N: 2000, V: 0.3, Trials: 256, MaxSteps: 100_000,
		Seed: runSeed*1_000_003 + uint64(k), Source: "center",
	}
}

// trialSeed mirrors the experiments layer's per-trial seed derivation.
func trialSeed(base uint64, trial int) uint64 { return base + uint64(trial)*0x9e3779b97f4a7c15 }

func pointParams(spec experiments.SweepSpec, i int) sim.Params {
	n := spec.N
	return sim.Params{N: n, L: math.Sqrt(float64(n)), R: spec.Values[i], V: spec.V, Seed: spec.Seed}
}

// runSweep is one timed RunSweep job; it returns the TSV and the wall time.
func (r *run) runSweep(spec experiments.SweepSpec, workers int) ([]byte, time.Duration, experiments.SweepResult, error) {
	t0 := time.Now()
	res, err := experiments.RunSweep(experiments.Config{Workers: workers}, spec)
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, res, err
	}
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		return nil, wall, res, err
	}
	return buf.Bytes(), wall, res, nil
}

// checkSweep counts the trials of res and fails any point with an error
// or an incomplete trial.
func (r *run) checkSweep(spec experiments.SweepSpec, res experiments.SweepResult) (trials int, agentSteps float64) {
	for i, p := range res.Points {
		r.attempted += p.Trials
		if p.Err != nil || p.Completed != p.Trials {
			r.fail("sweep seed %d point %d: completed %d of %d (%v)", spec.Seed, i, p.Completed, p.Trials, p.Err)
			continue
		}
		trials += p.Trials
		agentSteps += float64(spec.N) * p.MeanT * float64(p.Completed)
	}
	if len(res.Points) != len(spec.Values) {
		r.fail("sweep seed %d: %d points, want %d", spec.Seed, len(res.Points), len(spec.Values))
	}
	return trials, agentSteps
}

// sweepSetup times what a RunSweep of spec builds before its first trial:
// per point the Central Zone partition and one pooled world per worker.
func sweepSetup(spec experiments.SweepSpec) (time.Duration, error) {
	t0 := time.Now()
	for i := range spec.Values {
		p := pointParams(spec, i)
		if _, err := cells.NewPartition(p.L, p.R, p.N); err != nil {
			return 0, err
		}
		for wk := 0; wk < sweepWorkers; wk++ {
			p.Seed = trialSeed(spec.Seed, wk)
			if _, err := sim.NewWorld(p, nil); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}

func (r *run) sweepSetups(spec experiments.SweepSpec, reps int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < reps; i++ {
		d, err := sweepSetup(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// sweepMC runs RunSweep jobs for the budget. The first job is re-run at
// Workers: 1 and must give a byte-identical TSV; at the default seed it
// must also match the committed hash.
func sweepMC(r *run) error {
	setups, err := r.sweepSetups(sweepSpec(r.seed, 0), 41)
	if err != nil {
		return err
	}
	var walls []time.Duration
	var trials int
	var agentSteps float64
	end := r.deadline()
	for k := 0; k < 3 || time.Now().Before(end); k++ {
		spec := sweepSpec(r.seed, k)
		tsv, wall, res, err := r.runSweep(spec, sweepWorkers)
		r.attempted++
		if err != nil {
			r.fail("sweep job %d: %v", k, err)
			continue
		}
		walls = append(walls, wall)
		t, s := r.checkSweep(spec, res)
		trials += t
		agentSteps += s
		if k == 0 {
			r.checkSweepTSV(spec, tsv)
		}
	}
	r.endToEnd(setups, walls, trials, agentSteps, sumDur(walls))
	r.note("cells_per_s\t%.6g\t1/s\t(one cell is one trial)", float64(trials)/sumDur(walls).Seconds())
	return nil
}

// checkSweepTSV re-runs spec at Workers: 1 and compares the TSVs byte for
// byte; at the default seed the TSV must also match the committed hash.
func (r *run) checkSweepTSV(spec experiments.SweepSpec, tsv []byte) {
	one, _, _, err := r.runSweep(spec, 1)
	r.check(err == nil && bytes.Equal(one, tsv), "sweep seed %d: Workers: 1 TSV differs from Workers: %d (%v)",
		spec.Seed, sweepWorkers, err)
	sum := sha256.Sum256(tsv)
	got := hex.EncodeToString(sum[:])
	if r.seed == 1 {
		r.check(got == sweepDefaultTSVHash, "sweep TSV hash %s, committed %s", got, sweepDefaultTSVHash)
	}
	r.note("sweep_tsv_sha256\t%s\t(first job, seed %d)", got, r.seed)
}

// replayPoint drives the trials of sweep point i single-threaded through
// the calls the experiments layer makes (NewPartition, then per trial
// World.Reset, SourcePair, Flooding.Reset and Run), with spans and the
// twin guard, and stores each trial's outcome in out.
func (r *run) replayPoint(spec experiments.SweepSpec, i int, out map[[2]int]checkpoint.Result) error {
	tr := r.tr
	p := pointParams(spec, i)
	var rp struct {
		w  *sim.World
		f  *core.Flooding
		tw *twin
	}
	id := tr.begin("cells.partition")
	part, err := cells.NewPartition(p.L, p.R, p.N)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("bench.twin")
	model, err := sim.MRWPFactory()(mobilityConfig(p))
	if err == nil {
		rp.tw, err = newTwin(p, model)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	for t := 0; t < spec.Trials; t++ {
		seed := trialSeed(p.Seed, t)
		tid := tr.begin("experiments.trial")
		if rp.w == nil {
			wp := p
			wp.Seed = seed
			id := tr.begin("sim.new_world")
			rp.w, err = sim.NewWorld(wp, nil)
			tr.end(id)
		} else {
			id := tr.begin("sim.reset")
			rp.w.Reset(seed)
			tr.end(id)
		}
		if err != nil {
			tr.end(tid)
			return err
		}
		id := tr.begin("bench.twin")
		rp.tw.reset(tr, seed)
		err = rp.tw.guard(rp.w, false)
		tr.end(id)
		if err != nil {
			tr.end(tid)
			return err
		}
		id = tr.begin("core.source_pair")
		source, _ := core.SourcePair(rp.w)
		tr.end(id)
		if rp.f == nil {
			id = tr.begin("core.new_flooding")
			rp.f, err = core.NewFlooding(rp.w, source, core.WithPartition(part))
		} else {
			id = tr.begin("core.reset")
			err = rp.f.Reset(source)
		}
		tr.end(id)
		if err == nil {
			err = r.stepLoop(rp.w, rp.f, rp.tw, spec.MaxSteps, nil)
		}
		tr.end(tid)
		if err != nil {
			return err
		}
		res := checkpoint.Result{Completed: rp.f.Done(), Time: rp.w.Time(), CZTime: rp.f.CZInformedTime(),
			SuburbLag: -1, Informed: rp.f.InformedCount(), N: p.N}
		if res.Completed && res.CZTime >= 0 {
			res.SuburbLag = res.Time - res.CZTime
		}
		out[[2]int{i, t}] = res
	}
	return nil
}

// sweepMCTraced runs, per job: RunSweep untraced, the same cells through
// experiments.CellRunner single-threaded (the untraced baseline of the
// replay), then the traced replay, whose aggregate must reproduce the
// RunSweep TSV.
func sweepMCTraced(r *run) error {
	var sweepWall, cellWall time.Duration
	end := r.deadline()
	for k := 0; k < 1 || time.Now().Before(end); k++ {
		spec := sweepSpec(r.seed, k)
		tsv, wall, res, err := r.runSweep(spec, sweepWorkers)
		r.attempted++
		if err != nil {
			r.fail("sweep job %d: %v", k, err)
			continue
		}
		r.checkSweep(spec, res)
		sweepWall += wall

		runner := experiments.NewCellRunner(0)
		cellRes := map[[2]int]checkpoint.Result{}
		t0 := time.Now()
		for i := range spec.Values {
			for t := 0; t < spec.Trials; t++ {
				out, err := runner.Run(spec, i, t)
				if err != nil {
					return err
				}
				cellRes[[2]int{i, t}] = out
			}
		}
		cellWall += time.Since(t0)

		replayed := map[[2]int]checkpoint.Result{}
		root := r.tr.begin("bench.sweep_replay")
		for i := range spec.Values {
			if err = r.replayPoint(spec, i, replayed); err != nil {
				break
			}
		}
		r.tr.end(root)
		if err != nil {
			r.fail("sweep job %d: traced replay: %v", k, err)
			break
		}
		same := len(replayed) == len(cellRes)
		for key, v := range cellRes {
			same = same && replayed[key] == v
		}
		r.check(same, "sweep job %d: traced replay outcomes differ from CellRunner", k)
		agg, err := experiments.AggregateSweep(spec, func(p, t int) (checkpoint.Result, bool) {
			v, ok := replayed[[2]int{p, t}]
			return v, ok
		})
		var buf bytes.Buffer
		if err == nil {
			err = agg.WriteTSV(&buf)
		}
		r.check(err == nil && bytes.Equal(buf.Bytes(), tsv), "sweep job %d: traced replay TSV differs from RunSweep (%v)", k, err)
	}
	st := r.tr.stats()
	r.layerWorld(st, sweepSpec(r.seed, 0).N)
	trials := r.tr.programDurs("experiments.trial")
	r.set("experiments.trial_ms", float64(sumNS(trials))/float64(max(len(trials), 1))/1e6, "ms")
	r.set("experiments.worker_util", float64(sumNS(trials))/(sweepWorkers*float64(sweepWall)), "ratio")
	r.set("tracing_overhead", float64(sumNS(trials))/float64(cellWall), "x")
	r.set("unattributed_share", 1-float64(layerSelf(st))/float64(st.total("bench.sweep_replay")), "ratio")
	r.finishLayers()
	return nil
}
