package core

import (
	"testing"

	"manhattanflood/internal/sim"
)

func TestParsimoniousErrors(t *testing.T) {
	w := newWorld(t, sim.Params{N: 10, L: 10, R: 1, V: 0.1, Seed: 1})
	if _, err := NewParsimoniousFlooding(nil, 0, 0.5, 1); err == nil {
		t.Error("want nil-world error")
	}
	if _, err := NewParsimoniousFlooding(w, 99, 0.5, 1); err == nil {
		t.Error("want range error")
	}
	for _, p := range []float64{0, -0.5, 1.5} {
		if _, err := NewParsimoniousFlooding(w, 0, p, 1); err == nil {
			t.Errorf("p=%v: want probability error", p)
		}
	}
}

func TestParsimoniousPEqualOneMatchesFlooding(t *testing.T) {
	// With p = 1 the variant must inform the same number of agents per step
	// as plain flooding on an identically seeded world.
	p := sim.Params{N: 200, L: 10, R: 1.5, V: 0.2, Seed: 42}
	w1 := newWorld(t, p)
	w2 := newWorld(t, p)
	plain, _ := NewFlooding(w1, 0)
	pars, err := NewParsimoniousFlooding(w2, 0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 100 && !plain.Done(); s++ {
		plain.Step()
		pars.Step()
		if plain.InformedCount() != pars.InformedCount() {
			t.Fatalf("step %d: plain %d vs p=1 %d",
				s, plain.InformedCount(), pars.InformedCount())
		}
	}
	if !pars.Done() {
		t.Error("p=1 variant did not finish alongside plain flooding")
	}
}

func TestParsimoniousCompletesSlower(t *testing.T) {
	p := sim.Params{N: 300, L: 10, R: 1.5, V: 0.3, Seed: 11}
	wFast := newWorld(t, p)
	wSlow := newWorld(t, p)
	fast, _ := NewParsimoniousFlooding(wFast, 0, 1, 3)
	slow, _ := NewParsimoniousFlooding(wSlow, 0, 0.1, 3)
	okFast := runDone(t, fast, 3000)
	okSlow := runDone(t, slow, 3000)
	tFast, tSlow := wFast.Time(), wSlow.Time()
	if !okFast || !okSlow {
		t.Fatalf("runs incomplete: fast=%v slow=%v", okFast, okSlow)
	}
	if tSlow < tFast {
		t.Errorf("p=0.1 finished faster (%d) than p=1 (%d)", tSlow, tFast)
	}
	// But with ~10x fewer transmissions per informed step on average.
	if slow.Transmissions() >= fast.Transmissions()*2 {
		t.Errorf("parsimonious used %d transmissions vs %d for full flooding",
			slow.Transmissions(), fast.Transmissions())
	}
}

func TestKGossipErrors(t *testing.T) {
	w := newWorld(t, sim.Params{N: 10, L: 10, R: 1, V: 0.1, Seed: 1})
	if _, err := NewKGossip(nil, 0, 1, 1); err == nil {
		t.Error("want nil-world error")
	}
	if _, err := NewKGossip(w, -1, 1, 1); err == nil {
		t.Error("want range error")
	}
	if _, err := NewKGossip(w, 0, 0, 1); err == nil {
		t.Error("want fan-out error")
	}
}

func TestKGossipCompletes(t *testing.T) {
	p := sim.Params{N: 200, L: 10, R: 1.5, V: 0.3, Seed: 13}
	w := newWorld(t, p)
	g, err := NewKGossip(w, 0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !runDone(t, g, 5000) {
		t.Fatalf("k-gossip incomplete after %d steps (%d/%d)",
			w.Time(), g.InformedCount(), w.N())
	}
	if g.InformedCount() != 200 {
		t.Errorf("InformedCount = %d", g.InformedCount())
	}
}

func TestKGossipSlowerThanFlooding(t *testing.T) {
	p := sim.Params{N: 400, L: 10, R: 1.5, V: 0.3, Seed: 17}
	w1 := newWorld(t, p)
	w2 := newWorld(t, p)
	flood, _ := NewFlooding(w1, 0)
	gossip, _ := NewKGossip(w2, 0, 1, 5)
	rf := runFlood(t, flood, 5000)
	ok := runDone(t, gossip, 5000)
	tg := w2.Time()
	if !rf.Completed || !ok {
		t.Fatal("runs incomplete")
	}
	if tg < rf.Time {
		t.Errorf("k=1 gossip (%d) beat full flooding (%d)", tg, rf.Time)
	}
}
