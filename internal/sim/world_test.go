package sim

import (
	"math"
	"testing"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/mobility"
)

func TestParamsValidate(t *testing.T) {
	good := Params{N: 10, L: 10, R: 1, V: 0.1, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero-N", func(p *Params) { p.N = 0 }},
		{"neg-L", func(p *Params) { p.L = -1 }},
		{"zero-R", func(p *Params) { p.R = 0 }},
		{"nan-V", func(p *Params) { p.V = math.NaN() }},
		{"inf-L", func(p *Params) { p.L = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := good
			tt.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestNewWorldDefaultsToMRWP(t *testing.T) {
	w, err := NewWorld(Params{N: 50, L: 10, R: 1, V: 0.1, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.ModelName() != "mrwp" {
		t.Errorf("default model = %q, want mrwp", w.ModelName())
	}
	if w.N() != 50 {
		t.Errorf("N = %d", w.N())
	}
	if w.Time() != 0 {
		t.Errorf("fresh world Time = %d", w.Time())
	}
}

func TestNewWorldRejectsBadParams(t *testing.T) {
	if _, err := NewWorld(Params{}, nil); err == nil {
		t.Error("want error")
	}
}

func TestWorldStepMovesAgents(t *testing.T) {
	w, err := NewWorld(Params{N: 30, L: 10, R: 1, V: 0.2, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]geom.Point(nil), w.Positions()...)
	w.Step()
	if w.Time() != 1 {
		t.Errorf("Time = %d after one step", w.Time())
	}
	moved := 0
	sq := geom.Square(geom.Pt(0, 0), 10)
	for i := range before {
		p := w.Position(i)
		if !p.In(sq) {
			t.Fatalf("agent %d left the square: %v", i, p)
		}
		if p != before[i] {
			moved++
		}
		if d := before[i].Dist(p); d > 0.2+1e-9 {
			t.Fatalf("agent %d moved %v > V", i, d)
		}
	}
	if moved < 25 {
		t.Errorf("only %d/30 agents moved", moved)
	}
}

func TestWorldDeterminism(t *testing.T) {
	p := Params{N: 40, L: 10, R: 1, V: 0.3, Seed: 99}
	w1, _ := NewWorld(p, nil)
	w2, _ := NewWorld(p, nil)
	for s := 0; s < 50; s++ {
		w1.Step()
		w2.Step()
	}
	for i := 0; i < p.N; i++ {
		if w1.Position(i) != w2.Position(i) {
			t.Fatalf("agent %d diverged", i)
		}
	}
}

func TestWorldSeedSensitivity(t *testing.T) {
	p := Params{N: 40, L: 10, R: 1, V: 0.3, Seed: 1}
	q := p
	q.Seed = 2
	w1, _ := NewWorld(p, nil)
	w2, _ := NewWorld(q, nil)
	same := 0
	for i := 0; i < p.N; i++ {
		if w1.Position(i) == w2.Position(i) {
			same++
		}
	}
	if same == p.N {
		t.Error("different seeds produced identical initial positions")
	}
}

func TestWorldIndexConsistency(t *testing.T) {
	w, _ := NewWorld(Params{N: 100, L: 10, R: 1.5, V: 0.2, Seed: 5}, nil)
	for s := 0; s < 10; s++ {
		w.Step()
		ix := w.Index()
		if ix.Len() != w.N() {
			t.Fatalf("index has %d points, want %d", ix.Len(), w.N())
		}
		// Spot check: every reported neighbor is within R.
		got := ix.Neighbors(w.Position(0), 0, nil)
		for _, j := range got {
			if w.Position(0).Dist(w.Position(j)) > 1.5+1e-9 {
				t.Fatalf("false neighbor at distance %v", w.Position(0).Dist(w.Position(j)))
			}
		}
	}
}

func TestWorldFactories(t *testing.T) {
	p := Params{N: 10, L: 5, R: 1, V: 0.1, Seed: 11}
	tests := []struct {
		factory ModelFactory
		name    string
	}{
		{MRWPFactory(), "mrwp"},
		{MRWPFactory(mobility.WithInit(mobility.InitUniform)), "mrwp"},
		{RWPFactory(), "rwp"},
		{RandomWalkFactory(), "random-walk"},
		{RandomDirectionFactory(), "random-direction"},
	}
	for _, tt := range tests {
		w, err := NewWorld(p, tt.factory)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if w.ModelName() != tt.name {
			t.Errorf("model = %q, want %q", w.ModelName(), tt.name)
		}
		w.Step()
	}
}

func TestWorldFactoryErrorPropagates(t *testing.T) {
	bad := func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewRWP(cfg, mobility.WithRWPInit(mobility.InitTheorem12))
	}
	if _, err := NewWorld(Params{N: 5, L: 5, R: 1, V: 0.1}, bad); err == nil {
		t.Error("factory error must propagate")
	}
}

func TestSnapshotGraphIsStable(t *testing.T) {
	w, _ := NewWorld(Params{N: 60, L: 10, R: 2, V: 0.3, Seed: 13}, nil)
	g, err := w.SnapshotGraph()
	if err != nil {
		t.Fatal(err)
	}
	deg0 := g.Degree(0)
	// Stepping the world must not mutate the snapshot.
	for s := 0; s < 5; s++ {
		w.Step()
	}
	if g.Degree(0) != deg0 {
		t.Error("snapshot graph changed after world steps")
	}
	if g.Order() != 60 {
		t.Errorf("Order = %d", g.Order())
	}
}

func TestNearestAgent(t *testing.T) {
	w, _ := NewWorld(Params{N: 100, L: 10, R: 1, V: 0.1, Seed: 17}, nil)
	target := geom.Pt(5, 5)
	best := w.NearestAgent(target)
	bd := w.Position(best).Dist(target)
	for i := 0; i < w.N(); i++ {
		if w.Position(i).Dist(target) < bd-1e-12 {
			t.Fatalf("agent %d closer than reported nearest", i)
		}
	}
	if w.Params().N != 100 {
		t.Error("Params accessor wrong")
	}
}
