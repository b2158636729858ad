package core

import (
	"testing"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/sim"
)

// KGossip.Step must be allocation-free in the steady state: the per-step
// duplicate-target filter is a reusable bitmap plus touched list, not a
// fresh map — the same discipline as plain flooding (ROADMAP item).
func TestKGossipStepSteadyStateAllocs(t *testing.T) {
	// At R = 1.5, V = 0.1 this gossip completes after about 50 steps, so
	// the warm-ups and every counted round are spreading rounds.
	p := sim.Params{N: 400, L: 20, R: 1.5, V: 0.1, Seed: 6}
	w, err := sim.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewKGossip(w, w.NearestAgent(geom.Pt(p.L/2, p.L/2)), 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the scratch buffers across a representative spread of fill
	// levels.
	for s := 0; s < 15; s++ {
		g.Step()
	}
	avg := testing.AllocsPerRun(5, func() { g.Step() })
	if g.Done() {
		t.Fatal("gossip completed before the counted rounds ended, so no spreading round was measured; pick slower params")
	}
	if avg > 0 {
		t.Errorf("KGossip.Step allocates %v times per call in steady state, want 0", avg)
	}
}
