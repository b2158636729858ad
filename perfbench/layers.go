package main

import (
	"manhattanflood/internal/core"
	"manhattanflood/internal/sim"
)

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run prints all of them; a metric whose layer
// the workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"mobility.advance_ns_per_agent", "ns"},
	{"mobility.init_ns_per_agent", "ns"},
	{"spatialindex.classify_ns_per_agent", "ns"},
	{"spatialindex.sync_ns_per_agent", "ns"},
	{"spatialindex.rebuild_ns_per_agent", "ns"},
	{"spatialindex.mover_frac", "ratio"},
	{"sim.step_ms", "ms"},
	{"sim.step_share", "ratio"},
	{"sim.reset_ms", "ms"},
	{"sim.workers_speedup", "x"},
	{"core.round_ms", "ms"},
	{"core.round_ns_per_candidate", "ns"},
	{"core.hit_ratio", "ratio"},
	{"core.run_ms", "ms"},
	{"cells.partition_ms", "ms"},
	{"experiments.trial_ms", "ms"},
	{"experiments.worker_util", "ratio"},
	{"checkpoint.record_us_p50", "us"},
	{"checkpoint.record_us_p99", "us"},
	{"service.submit_ms_p50", "ms"},
	{"service.cell_ms", "ms"},
	{"service.overhead_share", "ratio"},
	{"tracev2.encode_ns_per_agent_step", "ns"},
	{"tracev2.write_ns_per_agent_step", "ns"},
	{"tracev2.replay_ns_per_agent_step", "ns"},
	{"tracev2.bytes_per_agent_step", "B"},
	{"unattributed_share", "ratio"},
	{"tracing_overhead", "x"},
}

// finishLayers fills every per-layer metric the workload did not set
// with 0: the layer is bypassed on this workload.
func (r *run) finishLayers() {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
		}
	}
}

// stepLoop runs f until every agent is informed or maxSteps more steps
// have passed, as Flooding.RunContext does, recording per step a core.step
// span with the World.Step part (stamped by the world's step hook) as its
// sim.step child, then driving the twin and its guard. frame, when not
// nil, runs once before the first step and after every step, where the
// flood's step observer would.
func (r *run) stepLoop(w *sim.World, f *core.Flooding, tw *twin, maxSteps int, frame func() error) error {
	tr := r.tr
	var hookT int64
	w.SetStepHook(func() { hookT = tr.now() })
	defer w.SetStepHook(nil)
	runID := tr.begin("core.run")
	defer tr.end(runID)
	if frame != nil {
		if err := frame(); err != nil {
			return err
		}
	}
	deadline := w.Time() + maxSteps
	n := w.N()
	for !f.Done() && w.Time() < deadline {
		cand := n - f.InformedCount()
		sid := tr.begin("core.step")
		newly := f.Step()
		tr.add("sim.step", tr.spans[sid].start, hookT)
		tr.end(sid)
		r.candidates += int64(cand)
		r.newly += int64(newly)
		if frame != nil {
			if err := frame(); err != nil {
				return err
			}
		}
		id := tr.begin("bench.twin")
		tw.step(tr)
		err := tw.guard(w, true)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	r.movers += tw.movers
	r.moverAgentSteps += tw.moverSteps * int64(n)
	tw.movers, tw.moverSteps = 0, 0
	return nil
}

// layerWorld sets the mobility, spatialindex, sim, core and cells metrics
// from the spans of the twin-guarded step loops (n agents per world).
func (r *run) layerWorld(st layerStats, n int) {
	perAgent := func(name string) float64 {
		c := st.count(name)
		if c == 0 {
			return 0
		}
		return float64(st.total(name)) / float64(c) / float64(n)
	}
	r.set("mobility.advance_ns_per_agent", perAgent("mobility.advance"), "ns")
	r.set("mobility.init_ns_per_agent", perAgent("mobility.init"), "ns")
	r.set("spatialindex.classify_ns_per_agent", perAgent("spatialindex.classify"), "ns")
	r.set("spatialindex.sync_ns_per_agent", perAgent("spatialindex.sync"), "ns")
	r.set("spatialindex.rebuild_ns_per_agent", perAgent("spatialindex.rebuild"), "ns")
	if r.moverAgentSteps > 0 {
		r.set("spatialindex.mover_frac", float64(r.movers)/float64(r.moverAgentSteps), "ratio")
	}
	r.set("sim.step_ms", st.mean("sim.step")/1e6, "ms")
	if t := st.total("core.step"); t > 0 {
		r.set("sim.step_share", float64(st.total("sim.step"))/float64(t), "ratio")
	}
	r.set("sim.reset_ms", st.mean("sim.reset")/1e6, "ms")
	if c := st.count("core.step"); c > 0 {
		r.set("core.round_ms", float64(st.self("core.step"))/float64(c)/1e6, "ms")
	}
	if r.candidates > 0 {
		r.set("core.round_ns_per_candidate", float64(st.self("core.step"))/float64(r.candidates), "ns")
		r.set("core.hit_ratio", float64(r.newly)/float64(r.candidates), "ratio")
	}
	if runs := r.tr.programDurs("core.run"); len(runs) > 0 {
		r.set("core.run_ms", float64(sumNS(runs))/float64(len(runs))/1e6, "ms")
	}
	r.set("cells.partition_ms", st.mean("cells.partition")/1e6, "ms")
}
