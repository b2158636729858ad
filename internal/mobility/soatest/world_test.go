package soatest

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/mobility"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/spatialindex"
)

// worldSeedStride mirrors sim.World's per-agent stream split: agent i of
// a world seeded s draws from PCG(s, i+worldSeedStride).
const worldSeedStride = 0x9e3779b97f4a7c15

// oracle is the world-level reference: the model's AoS agents, seeded
// from the world's per-agent PCG streams, stepped one by one, with the
// neighbor index rebuilt from scratch after every step — no population,
// no fused classify, no delta update, no tiling, no workers.
type oracle struct {
	model  mobility.Model
	agents []mobility.Agent
	view   mobility.View
	index  *spatialindex.Index
}

func newOracle(t *testing.T, p sim.Params, factory sim.ModelFactory) *oracle {
	t.Helper()
	model, err := factory(mobility.Config{L: p.L, V: p.V})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := spatialindex.New(p.L, p.R)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{
		model:  model,
		agents: make([]mobility.Agent, p.N),
		view:   mobility.View{X: make([]float64, p.N), Y: make([]float64, p.N)},
		index:  ix,
	}
	o.reset(p.Seed)
	return o
}

// reset draws every agent afresh from the streams of a world seeded seed.
func (o *oracle) reset(seed uint64) {
	for i := range o.agents {
		a := o.model.NewAgent(rand.New(rand.NewPCG(seed, uint64(i)+worldSeedStride)))
		a.(mobility.SlotWriter).BindSlot(o.view, i)
		o.agents[i] = a
	}
	o.index.RebuildXY(o.view.X, o.view.Y)
}

func (o *oracle) step() {
	for _, a := range o.agents {
		a.Step()
	}
	o.index.RebuildXY(o.view.X, o.view.Y)
}

// TestWorldsBitIdentical runs whole simulations against the oracle —
// the world stepping its SoA population with the fused advance→classify
// pass and incremental index sync, the oracle stepping AoS agents and
// rebuilding its flat index — and requires bit-identical trajectories
// AND bit-identical neighbor-index state (full CSR: ids, coordinates,
// bucket spans) at every step. Covered across all five models,
// sequential and 4-worker stepping, the delta-update and rebuild index
// regimes, tiled worlds in both regimes, and mid-run Reset (pooled
// reuse).
func TestWorldsBitIdentical(t *testing.T) {
	factories := []struct {
		name    string
		factory sim.ModelFactory
	}{
		{"mrwp", sim.MRWPFactory()},
		{"rwp", sim.RWPFactory()},
		{"random-walk", sim.RandomWalkFactory()},
		{"random-direction", sim.RandomDirectionFactory()},
		{"mrwp-paused", sim.PausedMRWPFactory(2.0)},
	}
	regimes := []struct {
		name    string
		v       float64 // against R = 2.5: 0.1 → delta path, 0.8 → rebuild path
		workers int
		tiles   int
	}{
		{"delta-seq", 0.1, 0, 0},
		{"rebuild-seq", 0.8, 0, 0},
		{"delta-par4", 0.1, 4, 0},
		{"rebuild-par4", 0.8, 4, 0},
		{"delta-tiled", 0.1, 2, 4},
		{"rebuild-tiled", 0.8, 2, 4},
	}
	for _, f := range factories {
		for _, rg := range regimes {
			t.Run(f.name+"/"+rg.name, func(t *testing.T) {
				p := sim.Params{N: 300, L: 30, R: 2.5, V: rg.v, Seed: 33, Workers: rg.workers, Tiles: rg.tiles}
				w, err := sim.NewWorld(p, f.factory)
				if err != nil {
					t.Fatal(err)
				}
				o := newOracle(t, p, f.factory)
				compareWorld(t, "init", w, o)
				for s := 1; s <= 30; s++ {
					w.Step()
					o.step()
					compareWorld(t, fmt.Sprintf("step %d", s), w, o)
				}
				w.Reset(77)
				o.reset(77)
				compareWorld(t, "reset", w, o)
				for s := 1; s <= 15; s++ {
					w.Step()
					o.step()
					compareWorld(t, fmt.Sprintf("post-reset step %d", s), w, o)
				}
			})
		}
	}
}

func compareWorld(t *testing.T, tag string, w *sim.World, o *oracle) {
	t.Helper()
	wx, wy := w.X(), w.Y()
	for i := range wx {
		if wx[i] != o.view.X[i] || wy[i] != o.view.Y[i] {
			t.Fatalf("%s: agent %d position diverges: world (%v,%v) vs oracle (%v,%v)",
				tag, i, wx[i], wy[i], o.view.X[i], o.view.Y[i])
		}
	}
	wi := w.Index()
	wids, wxs, wys := wi.CSR()
	oids, oxs, oys := o.index.CSR()
	if len(wids) != len(oids) {
		t.Fatalf("%s: CSR length %d, oracle %d", tag, len(wids), len(oids))
	}
	for k := range wids {
		if wids[k] != oids[k] || wxs[k] != oxs[k] || wys[k] != oys[k] {
			t.Fatalf("%s: index CSR diverges at position %d", tag, k)
		}
	}
	if wi.NumCells() != o.index.NumCells() {
		t.Fatalf("%s: cell counts diverge", tag)
	}
	for c := 0; c < wi.NumCells(); c++ {
		wlo, whi := wi.CellSpanBounds(c)
		olo, ohi := o.index.CellSpanBounds(c)
		if wlo != olo || whi != ohi {
			t.Fatalf("%s: bucket %d spans diverge", tag, c)
		}
	}
}
