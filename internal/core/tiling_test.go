package core

import (
	"fmt"
	"testing"

	"manhattanflood/internal/sim"
)

// Tiled-flood property: a flooding run on a tiled world (sim.Params.Tiles)
// is bit-identical to one on the flat world — same per-step newly informed
// ids IN THE SAME ORDER (the tiled merge reconstructs the flat sweep's
// bucket-major order exactly), same informed sets, same informed count
// after every step — across
// tile counts, worker counts, both index regimes, chained and plain
// protocols, and a mid-run Reset.

var tiledFloodGrid = []struct{ tiles, workers int }{
	{1, 0}, {1, 4},
	{2, 0}, {2, 4},
	{4, 0}, {4, 4},
}

func requireFloodsIdentical(t *testing.T, step int, got, want *Flooding) {
	t.Helper()
	if got.InformedCount() != want.InformedCount() {
		t.Fatalf("step %d: informed count %d, want %d",
			step, got.InformedCount(), want.InformedCount())
	}
	for i := 0; i < want.w.N(); i++ {
		if got.informed[i] != want.informed[i] {
			t.Fatalf("step %d: agent %d informed=%v, want %v",
				step, i, got.informed[i], want.informed[i])
		}
	}
	if len(got.newlyInformed) != len(want.newlyInformed) {
		t.Fatalf("step %d: %d newly informed, want %d",
			step, len(got.newlyInformed), len(want.newlyInformed))
	}
	for k := range want.newlyInformed {
		if got.newlyInformed[k] != want.newlyInformed[k] {
			t.Fatalf("step %d: newlyInformed[%d] = %d, want %d (order must match the flat bucket-major sweep)",
				step, k, got.newlyInformed[k], want.newlyInformed[k])
		}
	}
}

func TestTiledFloodBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		p       sim.Params
		factory sim.ModelFactory
		opts    []FloodOption
	}{
		// Delta-path world (V/R = 0.025), plain one-hop protocol.
		{"delta", sim.Params{N: 1500, L: 30, R: 4, V: 0.1, Seed: 5}, nil, nil},
		// Rebuild-path world (V/R = 0.2).
		{"rebuild", sim.Params{N: 1500, L: 30, R: 2, V: 0.4, Seed: 6}, nil, nil},
		// Chained protocol: the closure consumes the merged hit order.
		{"chained", sim.Params{N: 1200, L: 30, R: 3, V: 0.2, Seed: 7}, nil,
			[]FloodOption{WithinStepChaining(true)}},
		// Pause-heavy world: dirty-bitmap index update plus tiled sweep.
		{"paused", sim.Params{N: 1000, L: 30, R: 3, V: 0.1, Seed: 8},
			sim.PausedMRWPFactory(5), nil},
	}
	for _, tc := range cases {
		for _, g := range tiledFloodGrid {
			t.Run(fmt.Sprintf("%s/tiles=%d/workers=%d", tc.name, g.tiles, g.workers), func(t *testing.T) {
				flatP := tc.p
				tiledP := tc.p
				tiledP.Tiles = g.tiles
				tiledP.Workers = g.workers
				flatW, err := sim.NewWorld(flatP, tc.factory)
				if err != nil {
					t.Fatal(err)
				}
				tiledW, err := sim.NewWorld(tiledP, tc.factory)
				if err != nil {
					t.Fatal(err)
				}
				flatF, err := NewFlooding(flatW, 0, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				tiledF, err := NewFlooding(tiledW, 0, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 40 && !flatF.Done(); s++ {
					nf := flatF.Step()
					nt := tiledF.Step()
					if nf != nt {
						t.Fatalf("step %d: tiled informed %d agents, flat %d", s, nt, nf)
					}
					requireFloodsIdentical(t, s, tiledF, flatF)
				}
				if flatF.Done() != tiledF.Done() {
					t.Fatalf("completion disagrees: tiled %v, flat %v", tiledF.Done(), flatF.Done())
				}
				// Mid-run Reset: pool-style reuse must stay aligned too.
				flatW.Reset(tc.p.Seed + 1)
				tiledW.Reset(tc.p.Seed + 1)
				if err := flatF.Reset(1); err != nil {
					t.Fatal(err)
				}
				if err := tiledF.Reset(1); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 20 && !flatF.Done(); s++ {
					flatF.Step()
					tiledF.Step()
					requireFloodsIdentical(t, 100+s, tiledF, flatF)
				}
			})
		}
	}
}

// TestTiledSweepSkipsInformedTiles pins the tiled sweep's whole-tile skip:
// in the Suburb phase most tiles are fully informed, and their uninformed
// occupancy counters must read zero so the sweep never opens them.
func TestTiledSweepSkipsInformedTiles(t *testing.T) {
	p := sim.Params{N: 1200, L: 30, R: 3, V: 0.3, Seed: 17, Tiles: 4}
	w, err := sim.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlooding(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawEmptyTile := false
	for s := 0; s < 60 && !f.Done(); s++ {
		f.Step()
		if f.Done() {
			break
		}
		for _, u := range f.tileUninf {
			if u == 0 {
				sawEmptyTile = true
			}
		}
	}
	if !f.Done() {
		t.Fatal("flooding did not complete within the budget")
	}
	if !sawEmptyTile {
		t.Fatal("no tile ever reached zero uninformed occupancy mid-run; the whole-tile skip is vacuous")
	}
}
