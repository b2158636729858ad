package core

import (
	"fmt"
	"math"
	"os"
	"testing"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/sim"
)

// TestScaleBitIdentity is the population-scale leg of the tiled == flat
// property: a 100k-agent flood stepped on a flat world and on tiled
// worlds (K ∈ {4, 8}, serial and sharded) must agree bit-for-bit — same
// informed sets, same newlyInformed order — for every step of the
// opening flood phase. The small-world property tests cover the
// regime × tile × worker grid; this one exists because the sharded
// delta sync, the one flat counting sort that every rebuild shares, and
// the frontier skips all behave differently when the working set is
// thousands of buckets per tile, and a bug that only manifests at scale
// would slip past the small grids.
//
// It costs seconds, not milliseconds, so it is opt-in: set
// FLOODSIM_SCALE_TEST=1 (CI runs it via `make test-scale`).
func TestScaleBitIdentity(t *testing.T) {
	if os.Getenv("FLOODSIM_SCALE_TEST") == "" {
		t.Skip("set FLOODSIM_SCALE_TEST=1 to run the 100k-agent identity smoke (make test-scale)")
	}
	const n = 100000
	const steps = 12
	l := math.Sqrt(float64(n))
	base := sim.Params{N: n, L: l, R: 4, V: 0.3, Seed: 42}

	flatW, err := sim.NewWorld(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := flatW.NearestAgent(geom.Pt(l/2, l/2))
	flatF, err := NewFlooding(flatW, src)
	if err != nil {
		t.Fatal(err)
	}

	type cfg struct{ tiles, workers int }
	for _, c := range []cfg{{4, 0}, {8, 0}, {8, 4}} {
		t.Run(fmt.Sprintf("tiles=%d/workers=%d", c.tiles, c.workers), func(t *testing.T) {
			p := base
			p.Tiles = c.tiles
			p.Workers = c.workers
			w, err := sim.NewWorld(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFlooding(w, src)
			if err != nil {
				t.Fatal(err)
			}
			flatW.Reset(base.Seed)
			if err := flatF.Reset(src); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < steps && !flatF.Done(); s++ {
				nf := flatF.Step()
				nt := f.Step()
				if nf != nt {
					t.Fatalf("step %d: tiled informed %d agents, flat %d", s, nt, nf)
				}
				requireFloodsIdentical(t, s, f, flatF)
			}
		})
	}
}
