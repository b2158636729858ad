package core

import (
	"testing"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/sim"
)

// floodTrajectory runs one flooding process to completion under Run and
// records its series — the informed count at the start and after every
// step — plus the final result.
func floodTrajectory(t *testing.T, f *Flooding, maxSteps int) ([]int, Result) {
	t.Helper()
	series := []int{f.InformedCount()}
	if err := Run(nil, f, maxSteps, func() error {
		series = append(series, f.InformedCount())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return series, f.Result()
}

// A pooled World+Flooding pair (dirtied by a previous trial, then Reset)
// must reproduce the exact trajectory of a freshly constructed pair — the
// contract experiments.floodTrials relies on. Covered across sequential
// and parallel stepping, chaining and partition tracking, step by step
// through the informed-count series.
func TestPooledFloodMatchesFresh(t *testing.T) {
	for _, workers := range []int{0, 4} {
		for _, chain := range []bool{false, true} {
			p := sim.Params{N: 400, L: 20, R: 2.5, V: 0.35, Seed: 77, Workers: workers}
			part, err := cells.NewPartition(p.L, p.R, p.N)
			if err != nil {
				t.Fatal(err)
			}
			opts := []FloodOption{WithPartition(part)}
			if chain {
				opts = append(opts, WithinStepChaining(true))
			}

			// Fresh pair at the target seed.
			fw, err := sim.NewWorld(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			fsrc := fw.NearestAgent(geom.Pt(p.L/2, p.L/2))
			ff, err := NewFlooding(fw, fsrc, opts...)
			if err != nil {
				t.Fatal(err)
			}
			freshSeries, freshRes := floodTrajectory(t, ff, 5000)

			// Pooled pair: born at a different seed, run for a while,
			// then Reset to the target seed.
			pp := p
			pp.Seed = 123456
			pw, err := sim.NewWorld(pp, nil)
			if err != nil {
				t.Fatal(err)
			}
			psrc0 := pw.NearestAgent(geom.Pt(0, 0))
			pf, err := NewFlooding(pw, psrc0, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 40 && !pf.Done(); s++ {
				pf.Step()
			}
			pw.Reset(p.Seed)
			psrc := pw.NearestAgent(geom.Pt(p.L/2, p.L/2))
			if psrc != fsrc {
				t.Fatalf("workers=%d chain=%v: source differs after Reset: %d vs %d",
					workers, chain, psrc, fsrc)
			}
			if err := pf.Reset(psrc); err != nil {
				t.Fatal(err)
			}
			pooledSeries, pooledRes := floodTrajectory(t, pf, 5000)

			if len(freshSeries) != len(pooledSeries) {
				t.Fatalf("workers=%d chain=%v: step counts differ: %d vs %d",
					workers, chain, len(freshSeries)-1, len(pooledSeries)-1)
			}
			for s := range freshSeries {
				if freshSeries[s] != pooledSeries[s] {
					t.Fatalf("workers=%d chain=%v: informed count at step %d: %d vs %d",
						workers, chain, s, freshSeries[s], pooledSeries[s])
				}
			}
			if freshRes != pooledRes {
				t.Fatalf("workers=%d chain=%v: results differ:\nfresh  %+v\npooled %+v",
					workers, chain, freshRes, pooledRes)
			}
		}
	}
}

// Reset must also rewind the flooding bookkeeping itself: counts, source,
// zone tracking and the fresh set.
func TestFloodingResetState(t *testing.T) {
	p := sim.Params{N: 120, L: 12, R: 2, V: 0.3, Seed: 9}
	w, err := sim.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlooding(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		f.Step()
	}
	if f.InformedCount() <= 1 {
		t.Fatal("flood made no progress; test is vacuous")
	}
	w.Reset(10)
	if err := f.Reset(5); err != nil {
		t.Fatal(err)
	}
	if f.Source() != 5 {
		t.Fatalf("Source = %d, want 5", f.Source())
	}
	if f.InformedCount() != 1 || !f.Informed()[5] || f.Informed()[0] {
		t.Fatal("informed state not rewound")
	}
	if f.CZInformedTime() != -1 {
		t.Fatalf("CZInformedTime = %d, want -1", f.CZInformedTime())
	}
	if s := f.LastStepNewlyInformed(); len(s) != 1 || s[0] != 5 {
		t.Fatalf("fresh set = %v, want [5]", s)
	}
	if err := f.Reset(-1); err == nil {
		t.Fatal("Reset(-1) must fail")
	}
	if err := f.Reset(p.N); err == nil {
		t.Fatal("Reset(N) must fail")
	}
}

// Steady-state flooding steps must stay allocation-free (the acceptance
// bar the benchmarks enforce; this pins it as a test).
func TestFloodStepSteadyStateAllocs(t *testing.T) {
	p := sim.Params{N: 500, L: 22, R: 3, V: 0.25, Seed: 4}
	w, err := sim.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlooding(w, w.NearestAgent(geom.Pt(p.L/2, p.L/2)))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the scratch buffers.
	for s := 0; s < 6 && !f.Done(); s++ {
		f.Step()
	}
	if f.Done() {
		t.Skip("flood completed during warm-up; pick slower params")
	}
	avg := testing.AllocsPerRun(5, func() {
		if !f.Done() {
			f.Step()
		}
	})
	if avg > 0 {
		t.Errorf("flood Step allocates %v times per call in steady state, want 0", avg)
	}
}
