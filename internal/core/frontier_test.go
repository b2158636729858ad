package core

import (
	"testing"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/spatialindex"
)

// refFlood is the naive O(n^2)-per-step reference implementation of the
// paper's flooding rule (and its within-step chaining ablation), backed by
// spatialindex.Brute. It drives its own world so the frontier engine and
// the reference never share state.
type refFlood struct {
	w        *sim.World
	brute    *spatialindex.Brute
	informed []bool
	count    int
	chain    bool
}

func newRefFlood(t *testing.T, p sim.Params, factory sim.ModelFactory, source int, chain bool) *refFlood {
	t.Helper()
	w, err := sim.NewWorld(p, factory)
	if err != nil {
		t.Fatal(err)
	}
	r := &refFlood{
		w:        w,
		brute:    spatialindex.NewBrute(p.R),
		informed: make([]bool, p.N),
		count:    1,
		chain:    chain,
	}
	r.informed[source] = true
	return r
}

func (r *refFlood) step() int {
	r.w.Step()
	r.brute.Rebuild(r.w.Positions())
	pos := r.w.Positions()
	newly := 0
	round := func() int {
		var hits []int
		for i := range r.informed {
			if r.informed[i] {
				continue
			}
			for _, j := range r.brute.Neighbors(pos[i], i) {
				if r.informed[j] {
					hits = append(hits, i)
					break
				}
			}
		}
		for _, i := range hits {
			r.informed[i] = true
		}
		r.count += len(hits)
		return len(hits)
	}
	newly += round()
	if r.chain && newly > 0 {
		for {
			more := round()
			newly += more
			if more == 0 {
				break
			}
		}
	}
	return newly
}

// The frontier engine (occupancy-skip bucket sweep + BFS chaining closure)
// must produce bit-identical informed sets to the brute-force AoS
// reference flood, step by step, across seeds, population sizes, the
// chaining ablation, parallel stepping, the pooled (World.Reset +
// Flooding.Reset) construction path, and pause-heavy worlds — the regime
// where the index syncs from the mobility layer's per-agent dirty bitmap
// and resting agents skip classification. The reference recomputes every
// step from scratch, so any unsound skip diverges here.
func TestFrontierMatchesBruteReference(t *testing.T) {
	cases := []struct {
		n       int
		seed    uint64
		chain   bool
		workers int
		pooled  bool
		pause   float64 // > 0: PausedMRWP with this max pause
		v       float64 // 0: the default 0.4
	}{
		{60, 1, false, 0, false, 0, 0},
		{60, 1, true, 0, false, 0, 0},
		{200, 2, false, 0, false, 0, 0},
		{200, 2, true, 0, false, 0, 0},
		{500, 3, false, 0, false, 0, 0},
		{500, 3, true, 0, false, 0, 0},
		{200, 99, false, 0, false, 0, 0},
		{200, 99, true, 0, false, 0, 0},
		{300, 4, false, 3, false, 0, 0},
		{300, 4, true, 3, false, 0, 0},
		{300, 5, false, 0, true, 0, 0},
		{300, 5, true, 0, true, 0, 0},
		{300, 6, false, 3, true, 0, 0},
		// Pause-heavy worlds. At v=0.4, V/R > 0.05 exercises the sampled
		// dirty-count decision between the delta update and the rebuild
		// (delta path once enough agents rest); the slow v=0.1 cases pin
		// the dirty-bitmap delta path from the first step.
		{300, 7, false, 0, false, 60, 0},
		{300, 7, true, 0, false, 60, 0},
		{300, 8, false, 0, false, 200, 0.1},
		{300, 8, true, 0, false, 200, 0.1},
		{300, 9, false, 3, false, 120, 0.1},
		{300, 10, false, 0, true, 120, 0.1},
	}
	for _, tc := range cases {
		v := tc.v
		if v == 0 {
			v = 0.4
		}
		var factory sim.ModelFactory
		if tc.pause > 0 {
			factory = sim.PausedMRWPFactory(tc.pause)
		}
		p := sim.Params{N: tc.n, L: 25, R: 3, V: v, Seed: tc.seed, Workers: tc.workers}
		var w *sim.World
		var f *Flooding
		var err error
		var source int
		if tc.pooled {
			// Build the engine at a decoy seed, dirty it, then Reset to
			// the target seed: the pooled pair must match the reference
			// exactly like a fresh pair.
			dp := p
			dp.Seed = p.Seed + 0xdecade
			w, err = sim.NewWorld(dp, factory)
			if err != nil {
				t.Fatal(err)
			}
			var opts []FloodOption
			if tc.chain {
				opts = append(opts, WithinStepChaining(true))
			}
			f, err = NewFlooding(w, 0, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 25 && !f.Done(); s++ {
				f.Step()
			}
			w.Reset(p.Seed)
			source = w.NearestAgent(geom.Pt(p.L/2, p.L/2))
			if err := f.Reset(source); err != nil {
				t.Fatal(err)
			}
		} else {
			w, err = sim.NewWorld(p, factory)
			if err != nil {
				t.Fatal(err)
			}
			source = w.NearestAgent(geom.Pt(p.L/2, p.L/2))
			var opts []FloodOption
			if tc.chain {
				opts = append(opts, WithinStepChaining(true))
			}
			f, err = NewFlooding(w, source, opts...)
			if err != nil {
				t.Fatal(err)
			}
		}
		refP := p
		refP.Workers = 0 // the reference is always sequential
		ref := newRefFlood(t, refP, factory, source, tc.chain)

		maxSteps := 400
		if tc.pause > 0 {
			maxSteps = 2000 // resting couriers stretch the Suburb phase
		}
		for s := 0; s < maxSteps && !f.Done(); s++ {
			got := f.Step()
			want := ref.step()
			if got != want {
				t.Fatalf("n=%d seed=%d chain=%v step %d: newly informed %d, reference %d",
					tc.n, tc.seed, tc.chain, s+1, got, want)
			}
			if f.InformedCount() != ref.count {
				t.Fatalf("n=%d seed=%d chain=%v step %d: count %d, reference %d",
					tc.n, tc.seed, tc.chain, s+1, f.InformedCount(), ref.count)
			}
			for i := 0; i < tc.n; i++ {
				if f.informed[i] != ref.informed[i] {
					t.Fatalf("n=%d seed=%d chain=%v step %d: agent %d informed=%v, reference %v",
						tc.n, tc.seed, tc.chain, s+1, i, f.informed[i], ref.informed[i])
				}
			}
		}
		if !f.Done() {
			t.Fatalf("n=%d seed=%d chain=%v pause=%v: flood incomplete after %d steps",
				tc.n, tc.seed, tc.chain, tc.pause, maxSteps)
		}
	}
}

// Parallel agent stepping must be bit-identical to sequential stepping:
// same informed set after every step and the same series for a fixed
// seed, with and without the chaining closure.
func TestParallelSweepBitIdentical(t *testing.T) {
	for _, chain := range []bool{false, true} {
		pSeq := sim.Params{N: 800, L: 28, R: 3, V: 0.3, Seed: 42}
		pPar := pSeq
		pPar.Workers = 4

		mk := func(p sim.Params) (*Flooding, *sim.World) {
			w, err := sim.NewWorld(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			var opts []FloodOption
			if chain {
				opts = append(opts, WithinStepChaining(true))
			}
			f, err := NewFlooding(w, w.NearestAgent(geom.Pt(p.L/2, p.L/2)), opts...)
			if err != nil {
				t.Fatal(err)
			}
			return f, w
		}
		fSeq, _ := mk(pSeq)
		fPar, _ := mk(pPar)

		sSeq, sPar := []int{fSeq.InformedCount()}, []int{fPar.InformedCount()}
		for s := 0; s < 2000 && !fSeq.Done(); s++ {
			nSeq := fSeq.Step()
			nPar := fPar.Step()
			if nSeq != nPar {
				t.Fatalf("chain=%v step %d: sequential %d newly, parallel %d", chain, s+1, nSeq, nPar)
			}
			for i := 0; i < 800; i++ {
				if fSeq.informed[i] != fPar.informed[i] {
					t.Fatalf("chain=%v step %d: agent %d diverges", chain, s+1, i)
				}
			}
			sSeq = append(sSeq, fSeq.InformedCount())
			sPar = append(sPar, fPar.InformedCount())
		}
		if !fSeq.Done() || !fPar.Done() {
			t.Fatalf("chain=%v: floods incomplete (seq %v, par %v)", chain, fSeq.Done(), fPar.Done())
		}
		if len(sSeq) != len(sPar) {
			t.Fatalf("chain=%v: series lengths differ: %d vs %d", chain, len(sSeq), len(sPar))
		}
		for i := range sSeq {
			if sSeq[i] != sPar[i] {
				t.Fatalf("chain=%v: series diverge at step %d: %d vs %d", chain, i, sSeq[i], sPar[i])
			}
		}
	}
}

// Result fields (Time, CZTime, SuburbLag, Informed) must agree between a
// sequential and a parallel run at identical parameters.
func TestParallelRunResultIdentical(t *testing.T) {
	run := func(workers int) Result {
		p := sim.Params{N: 600, L: 24.5, R: 3, V: 0.3, Seed: 7, Workers: workers}
		w, err := sim.NewWorld(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFlooding(w, w.NearestAgent(geom.Pt(p.L/2, p.L/2)))
		if err != nil {
			t.Fatal(err)
		}
		return runFlood(t, f, 5000)
	}
	seq := run(0)
	par := run(3)
	if seq != par {
		t.Fatalf("results differ:\nsequential %+v\nparallel   %+v", seq, par)
	}
	if !seq.Completed {
		t.Fatal("flood did not complete within budget")
	}
}
