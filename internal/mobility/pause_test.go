package mobility

import (
	"math"
	"testing"

	"manhattanflood/internal/stats"
)

func TestNewPausedMRWPErrors(t *testing.T) {
	if _, err := NewPausedMRWP(Config{L: 0, V: 1}, 1); err == nil {
		t.Error("want config error")
	}
	for _, p := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewPausedMRWP(Config{L: 10, V: 1}, p); err == nil {
			t.Errorf("maxPause=%v: want error", p)
		}
	}
}

func TestPausedFraction(t *testing.T) {
	// L=6, v=1: mean trip time = (2*6/3)/1 = 4; maxPause=8 => mean pause 4
	// => q = 1/2.
	m, err := NewPausedMRWP(Config{L: 6, V: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if q := m.PausedFraction(); math.Abs(q-0.5) > 1e-12 {
		t.Errorf("q = %v, want 0.5", q)
	}
	if m.Name() != "mrwp-paused" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestPausedAgentDoesNotMoveWhilePaused(t *testing.T) {
	m, _ := NewPausedMRWP(Config{L: 10, V: 0.5}, 50)
	rng := testRNG(40)
	// Find an agent initialized in the paused phase.
	for try := 0; try < 200; try++ {
		a := m.NewAgent(rng).(*PausedAgent)
		if !a.Paused() || a.pauseLeft < 3 {
			continue
		}
		before := a.Pos()
		a.Step()
		if a.Pos() != before {
			t.Fatal("agent moved during its pause")
		}
		return
	}
	t.Fatal("no long-paused agent drawn in 200 tries")
}

func TestPausedAgentEventuallyMoves(t *testing.T) {
	m, _ := NewPausedMRWP(Config{L: 10, V: 0.5}, 3)
	rng := testRNG(41)
	a := m.NewAgent(rng)
	start := a.Pos()
	moved := false
	for s := 0; s < 100; s++ {
		a.Step()
		if a.Pos() != start {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("agent never moved in 100 steps with maxPause=3")
	}
}

func TestPausedAgentSpeedCap(t *testing.T) {
	m, _ := NewPausedMRWP(Config{L: 10, V: 0.3}, 2)
	rng := testRNG(42)
	a := m.NewAgent(rng)
	for s := 0; s < 1000; s++ {
		before := a.Pos()
		a.Step()
		if d := before.ManhattanDist(a.Pos()); d > 0.3+1e-9 {
			t.Fatalf("step %d moved %v > V", s, d)
		}
	}
}

// The headline validation: the empirical stationary density equals the
// mixture q/L^2 + (1-q) f(x,y), both at t=0 (perfect simulation) and
// after stepping (stationarity preserved).
func TestPausedMRWPStationaryMixture(t *testing.T) {
	const l = 1.0
	cfg := Config{L: l, V: 0.05}
	m, err := NewPausedMRWP(cfg, 20) // q = (10)/(10 + 13.33) = 0.4286
	if err != nil {
		t.Fatal(err)
	}
	q := m.PausedFraction()
	if q < 0.3 || q > 0.6 {
		t.Fatalf("test wants a balanced mixture, q = %v", q)
	}
	rng := testRNG(43)
	g0, _ := stats.NewGrid2D(l, 8)
	g20, _ := stats.NewGrid2D(l, 8)
	var paused0 int
	const agents = 30000
	for i := 0; i < agents; i++ {
		a := m.NewAgent(rng).(*PausedAgent)
		if a.Paused() {
			paused0++
		}
		p := a.Pos()
		g0.Add(p.X, p.Y)
		for s := 0; s < 20; s++ {
			a.Step()
		}
		p = a.Pos()
		g20.Add(p.X, p.Y)
	}
	if f := float64(paused0) / agents; math.Abs(f-q) > 0.01 {
		t.Errorf("paused fraction at t=0: %v, want %v", f, q)
	}
	_, _, l1at0 := g0.CompareDensity(m.StationaryDensity)
	_, _, l1at20 := g20.CompareDensity(m.StationaryDensity)
	if l1at0 > 0.05 {
		t.Errorf("t=0 L1 from mixture density = %v", l1at0)
	}
	if l1at20 > 0.05 {
		t.Errorf("t=20 L1 from mixture density = %v (stationarity violated)", l1at20)
	}
	// Sanity: the mixture is flatter than pure Theorem 1 — its corner
	// density is at least q/L^2 > 0.
	if m.StationaryDensity(0, 0) < q/(l*l)-1e-12 {
		t.Error("corner density below the uniform floor")
	}
}

// The stationary start must stay stationary in the paused fraction too:
// an agent drawn in its paused phase rests out its residual pause and then
// travels, exactly like an agent that just arrived. (Returning a
// zero-length trip from the paused phase made the residual pause end in a
// second full U(0, P) pause, so the paused fraction rose well above q
// around t = P/2 before decaying back.)
func TestPausedFractionStaysStationary(t *testing.T) {
	const maxPause = 8.0
	m, err := NewPausedMRWP(Config{L: 10, V: 0.5}, maxPause) // q = 0.2308
	if err != nil {
		t.Fatal(err)
	}
	q := m.PausedFraction()
	const n = 50000 // standard error of the fraction ~0.002
	agents := make([]*PausedAgent, n)
	rng := testRNG(47)
	for i := range agents {
		agents[i] = m.NewAgent(rng).(*PausedAgent)
	}
	for step := 1; step <= maxPause; step++ {
		paused := 0
		for _, a := range agents {
			a.Step()
			if a.Paused() {
				paused++
			}
		}
		if step != maxPause/2 && step != maxPause {
			continue
		}
		if f := float64(paused) / n; math.Abs(f-q) > 0.01 {
			t.Errorf("paused fraction at t=%d: %.4f, want %.4f ± 0.01", step, f, q)
		}
	}
}
