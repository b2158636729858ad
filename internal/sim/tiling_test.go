package sim

import (
	"fmt"
	"testing"
)

// Tiled-world property: a world with Params.Tiles set is bit-identical to
// the flat world at every step — same agent positions AND the same full
// neighbor-index state (starts offsets, bucket-major ids, CSR coordinate
// streams, id -> bucket map) — across tile counts, worker counts, both
// index maintenance regimes (delta vs rebuild, picked by V/R), and a
// mid-run Reset. Tiling only changes how the index state is computed.

func requireWorldsIdentical(t *testing.T, step int, got, want *World) {
	t.Helper()
	for i := 0; i < want.N(); i++ {
		if got.Position(i) != want.Position(i) {
			t.Fatalf("step %d agent %d: position %v, want %v",
				step, i, got.Position(i), want.Position(i))
		}
	}
	gix, wix := got.Index(), want.Index()
	gids, gx, gy := gix.CSR()
	wids, wx, wy := wix.CSR()
	if len(gids) != len(wids) {
		t.Fatalf("step %d: CSR length %d, want %d", step, len(gids), len(wids))
	}
	for k := range wids {
		if gids[k] != wids[k] {
			t.Fatalf("step %d: CSR ids[%d] = %d, want %d", step, k, gids[k], wids[k])
		}
		if gx[k] != wx[k] || gy[k] != wy[k] {
			t.Fatalf("step %d: CSR coords[%d] = (%v, %v), want (%v, %v)",
				step, k, gx[k], gy[k], wx[k], wy[k])
		}
	}
	for c := 0; c < wix.NumCells(); c++ {
		glo, ghi := gix.CellSpanBounds(c)
		wlo, whi := wix.CellSpanBounds(c)
		if glo != wlo || ghi != whi {
			t.Fatalf("step %d: bucket %d span [%d, %d), want [%d, %d)",
				step, c, glo, ghi, wlo, whi)
		}
	}
	for i := 0; i < want.N(); i++ {
		if gix.Cell(i) != wix.Cell(i) {
			t.Fatalf("step %d: Cell(%d) = %d, want %d", step, i, gix.Cell(i), wix.Cell(i))
		}
	}
}

// tiledWorldGrid is the acceptance matrix from the issue: K in {1, 2, 4}
// crossed with serial and parallel stepping.
var tiledWorldGrid = []struct{ tiles, workers int }{
	{1, 0}, {1, 4},
	{2, 0}, {2, 4},
	{4, 0}, {4, 4},
}

func TestTiledWorldBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		base    Params
		factory ModelFactory
	}{
		// V/R = 0.025: the index stays on the delta path (UpdateCells).
		{"delta", Params{N: 2000, L: 40, R: 4, V: 0.1, Seed: 99}, nil},
		// V/R = 0.2: every step re-runs the flat counting sort, which
		// tiled and flat indexes share.
		{"rebuild", Params{N: 2000, L: 40, R: 2, V: 0.4, Seed: 99}, nil},
		// Paused model: dirty-bitmap delta path, AoS/dirty bookkeeping.
		{"paused", Params{N: 1500, L: 40, R: 4, V: 0.1, Seed: 41}, PausedMRWPFactory(3)},
	}
	for _, tc := range cases {
		for _, g := range tiledWorldGrid {
			t.Run(fmt.Sprintf("%s/tiles=%d/workers=%d", tc.name, g.tiles, g.workers), func(t *testing.T) {
				flatP := tc.base
				tiledP := tc.base
				tiledP.Tiles = g.tiles
				tiledP.Workers = g.workers
				flat, err := NewWorld(flatP, tc.factory)
				if err != nil {
					t.Fatal(err)
				}
				tiled, err := NewWorld(tiledP, tc.factory)
				if err != nil {
					t.Fatal(err)
				}
				requireWorldsIdentical(t, -1, tiled, flat)
				for s := 0; s < 25; s++ {
					flat.Step()
					tiled.Step()
					requireWorldsIdentical(t, s, tiled, flat)
				}
				// Mid-run Reset must land both worlds on the same fresh
				// trajectory.
				flat.Reset(tc.base.Seed + 1)
				tiled.Reset(tc.base.Seed + 1)
				requireWorldsIdentical(t, -2, tiled, flat)
				for s := 0; s < 15; s++ {
					flat.Step()
					tiled.Step()
					requireWorldsIdentical(t, 100+s, tiled, flat)
				}
			})
		}
	}
}

func TestTiledParamsValidate(t *testing.T) {
	p := Params{N: 5, L: 10, R: 1, V: 0.2, Tiles: -1}
	if err := p.Validate(); err == nil {
		t.Error("want Tiles error")
	}
	// A tile count far beyond the bucket grid is clamped, not rejected.
	big := Params{N: 5, L: 10, R: 1, V: 0.2, Tiles: 10000}
	w, err := NewWorld(big, nil)
	if err != nil {
		t.Fatalf("oversized Tiles should clamp, got %v", err)
	}
	if tl := w.Index().Tiling(); tl == nil || tl.K() > w.Index().Cols() {
		t.Fatalf("tiling not clamped to the bucket grid: %+v", tl)
	}
}
