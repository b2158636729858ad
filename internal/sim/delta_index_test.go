package sim

import (
	"testing"

	"manhattanflood/internal/spatialindex"
)

// requireIndexMatchesFreshRebuild asserts that the world's delta-maintained
// index is bit-identical to an index freshly counting-sort rebuilt from the
// world's live coordinates: same bucket offsets, same bucket-major ids,
// same CSR coordinate streams, same id-indexed copies and bucket map.
func requireIndexMatchesFreshRebuild(t *testing.T, step int, w *World, ref *spatialindex.Index) {
	t.Helper()
	requireMatchesFreshRebuild(t, step, w, w.Index(), ref)
}

// requireMatchesFreshRebuild asserts that ix, an index the world keeps in
// sync, is bit-identical to ref freshly rebuilt from the world's live
// coordinates (ref must have ix's radius).
func requireMatchesFreshRebuild(t *testing.T, step int, w *World, ix, ref *spatialindex.Index) {
	t.Helper()
	ref.RebuildXY(w.X(), w.Y())
	if ix.Len() != ref.Len() {
		t.Fatalf("step %d: Len %d != %d", step, ix.Len(), ref.Len())
	}
	gids, gx, gy := ix.CSR()
	wids, wx, wy := ref.CSR()
	for k := range wids {
		if gids[k] != wids[k] || gx[k] != wx[k] || gy[k] != wy[k] {
			t.Fatalf("step %d: CSR[%d] = (%d, %v, %v), want (%d, %v, %v)",
				step, k, gids[k], gx[k], gy[k], wids[k], wx[k], wy[k])
		}
	}
	for c := 0; c < ref.NumCells(); c++ {
		glo, ghi := ix.CellSpanBounds(c)
		wlo, whi := ref.CellSpanBounds(c)
		if glo != wlo || ghi != whi {
			t.Fatalf("step %d: CellSpanBounds(%d) = [%d, %d), want [%d, %d)", step, c, glo, ghi, wlo, whi)
		}
	}
	gxs, gys := ix.XS(), ix.YS()
	wxs, wys := ref.XS(), ref.YS()
	for i := range wxs {
		if gxs[i] != wxs[i] || gys[i] != wys[i] || ix.Cell(i) != ref.Cell(i) {
			t.Fatalf("step %d: id %d = (%v, %v, cell %d), want (%v, %v, cell %d)",
				step, i, gxs[i], gys[i], ix.Cell(i), wxs[i], wys[i], ref.Cell(i))
		}
	}
}

// The delta-updated index inside World.Step must stay bit-identical to a
// fresh rebuild across randomized mobility runs — for the default MRWP
// model and for the paused variant (whose resting agents exercise the
// clean-dirty-bit skip), stepped sequentially and in parallel, at a
// velocity low enough to stay on the delta path and one high enough to
// trip the counting-sort fallback.
func TestDeltaIndexMatchesFreshRebuild(t *testing.T) {
	cases := []struct {
		name    string
		factory ModelFactory
		v       float64
		workers int
		// wantDelta marks cases whose V/R sits under the world's delta
		// threshold: Step must take Index.Update (verified below via the
		// retained-slice contract), and these are the cases that actually
		// exercise the sim-to-index delta plumbing with live dirty bits.
		wantDelta bool
	}{
		{"mrwp_delta_seq", nil, 0.1, 1, true},
		{"mrwp_delta_parallel", nil, 0.1, 4, true},
		{"paused_delta_seq", PausedMRWPFactory(6), 0.1, 1, true},
		{"paused_delta_parallel", PausedMRWPFactory(6), 0.1, 4, true},
		{"mrwp_rebuild_seq", nil, 0.3, 1, false},
		{"mrwp_rebuild_parallel", nil, 0.3, 4, false},
		{"mrwp_fast_fallback", nil, 9.0, 1, false},
		{"paused_rebuild_seq", PausedMRWPFactory(6), 0.5, 1, false},
		{"walk_delta_seq", RandomWalkFactory(), 0.1, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{N: 600, L: 25, R: 2.5, V: tc.v, Seed: 0xd317a, Workers: tc.workers}
			w, err := NewWorld(p, tc.factory)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := spatialindex.New(p.L, p.R)
			if err != nil {
				t.Fatal(err)
			}
			requireIndexMatchesFreshRebuild(t, -1, w, ref)
			for step := 0; step < 40; step++ {
				w.Step()
				requireIndexMatchesFreshRebuild(t, step, w, ref)
			}
			// Prove the intended path ran: Update retains the world's live
			// coordinate slices as the index view, while RebuildXY installs
			// an owned copy.
			aliased := &w.Index().XS()[0] == &w.X()[0]
			if tc.wantDelta && !aliased {
				t.Fatalf("V/R = %v should take the delta path, but the index holds a coordinate copy (rebuild ran)", tc.v/p.R)
			}
			if !tc.wantDelta && aliased {
				t.Fatalf("V/R = %v should take the rebuild path, but the index retained the live slices (delta ran)", tc.v/p.R)
			}
			// A mid-run Reset must land back on a bit-identical index too.
			w.Reset(0xd317a + 1)
			requireIndexMatchesFreshRebuild(t, -2, w, ref)
			for step := 0; step < 10; step++ {
				w.Step()
				requireIndexMatchesFreshRebuild(t, 100+step, w, ref)
			}
		})
	}
}

// Paused agents must actually be skipped as clean: with a long pause cap
// most agents rest most steps, and the world's dirty bitmap after a step
// must mark strictly fewer agents than the population (this is the payoff
// the delta path buys in the E17 pause regime).
func TestDirtyBitsSparseUnderPauses(t *testing.T) {
	p := Params{N: 500, L: 22, R: 2.2, V: 0.4, Seed: 99}
	w, err := NewWorld(p, PausedMRWPFactory(50))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		w.Step()
	}
	moved := 0
	for _, d := range w.dirty {
		if d {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no agent moved in a step; the dirty bitmap is not being set")
	}
	if moved == p.N {
		t.Fatalf("all %d agents marked dirty under a 50-unit pause cap; resting agents are not being skipped", p.N)
	}
}
