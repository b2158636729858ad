package manhattan

import (
	"math"
	"testing"
)

func validConfig() Config {
	return StandardConfig(800, 4, 0.3, 1)
}

func TestStandardConfig(t *testing.T) {
	c := StandardConfig(900, 4, 0.3, 7)
	if c.L != 30 {
		t.Errorf("L = %v, want sqrt(900)=30", c.L)
	}
	if c.N != 900 || c.R != 4 || c.V != 0.3 || c.Seed != 7 {
		t.Errorf("config = %+v", c)
	}
}

func TestNewErrors(t *testing.T) {
	bad := validConfig()
	bad.N = 0
	if _, err := New(bad); err == nil {
		t.Error("want N error")
	}
	bad = validConfig()
	bad.Model = Model(99)
	if _, err := New(bad); err == nil {
		t.Error("want model error")
	}
	bad = validConfig()
	bad.R = -1
	if _, err := New(bad); err == nil {
		t.Error("want R error")
	}
}

func TestSimulationBasics(t *testing.T) {
	s, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Time() != 0 {
		t.Errorf("Time = %d", s.Time())
	}
	if got := s.Config().N; got != 800 {
		t.Errorf("Config().N = %d", got)
	}
	pts := s.Positions()
	if len(pts) != 800 {
		t.Fatalf("positions = %d", len(pts))
	}
	l := s.Config().L
	for _, p := range pts {
		if p.X < 0 || p.X > l || p.Y < 0 || p.Y > l {
			t.Fatalf("position %v outside square", p)
		}
	}
	s.Step()
	if s.Time() != 1 {
		t.Errorf("Time after step = %d", s.Time())
	}
	if p := s.Position(5); p != s.Positions()[5] {
		t.Error("Position(5) inconsistent with Positions()")
	}
}

func TestModelStrings(t *testing.T) {
	want := map[Model]string{
		MRWP: "mrwp", RWP: "rwp", RandomWalk: "random-walk", RandomDirection: "random-direction",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if Model(9).String() != "Model(9)" {
		t.Error("unknown model string")
	}
}

func TestAllModelsRun(t *testing.T) {
	for _, m := range []Model{MRWP, RWP, RandomWalk, RandomDirection} {
		t.Run(m.String(), func(t *testing.T) {
			cfg := validConfig()
			cfg.Model = m
			cfg.N = 100
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				s.Step()
			}
		})
	}
}

func TestColdInit(t *testing.T) {
	cfg := validConfig()
	cfg.Init = Cold
	if _, err := New(cfg); err != nil {
		t.Fatalf("cold MRWP: %v", err)
	}
	cfg.Model = RWP
	if _, err := New(cfg); err != nil {
		t.Fatalf("cold RWP: %v", err)
	}
}

func TestZones(t *testing.T) {
	s, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	z := s.Zones()
	if z.CellsPerSide <= 0 || z.CellSide <= 0 {
		t.Errorf("zones = %+v", z)
	}
	if z.CentralCells+z.SuburbCells != z.CellsPerSide*z.CellsPerSide {
		t.Error("cell counts inconsistent")
	}
	l := s.Config().L
	if z.CentralCells > 0 && !s.InCentralZone(Point{l / 2, l / 2}) {
		t.Error("center must be in the Central Zone")
	}
}

func TestSnapshot(t *testing.T) {
	s, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Components < 1 {
		t.Errorf("components = %d", st.Components)
	}
	if st.GiantFraction <= 0 || st.GiantFraction > 1 {
		t.Errorf("giant = %v", st.GiantFraction)
	}
	if st.AvgDegree < 0 {
		t.Errorf("avg degree = %v", st.AvgDegree)
	}
	if st.Connected && st.Components != 1 {
		t.Error("connected but components != 1")
	}
}

func TestFloodCompletes(t *testing.T) {
	s, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Flood(FloodOptions{Source: SourceCenter, MaxSteps: 50000, TrackZones: true, RecordSeries: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("flood incomplete: %+v", res)
	}
	if res.Informed != 800 {
		t.Errorf("informed = %d", res.Informed)
	}
	if res.CZTime < 0 || res.CZTime > res.Time {
		t.Errorf("CZTime = %d, Time = %d", res.CZTime, res.Time)
	}
	if res.SuburbLag != res.Time-res.CZTime {
		t.Errorf("SuburbLag = %d", res.SuburbLag)
	}
	if len(res.Series) == 0 || res.Series[len(res.Series)-1] != 800 {
		t.Error("series missing or wrong tail")
	}
}

func TestFloodSourcePlacements(t *testing.T) {
	cfg := validConfig()
	for _, src := range []Source{SourceCenter, SourceCorner, SourceRandom} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Flood(FloodOptions{Source: src, MaxSteps: 50000})
		if err != nil {
			t.Fatalf("source %d: %v", src, err)
		}
		if !res.Completed {
			t.Errorf("source %d: incomplete", src)
		}
	}
	// Explicit source agent.
	s, _ := New(cfg)
	res, err := s.Flood(FloodOptions{Source: SourceExplicit, SourceAgent: 17, MaxSteps: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != 17 {
		t.Errorf("Source = %d, want 17", res.Source)
	}
}

func TestFloodChainingFaster(t *testing.T) {
	cfg := validConfig()
	s1, _ := New(cfg)
	s2, _ := New(cfg)
	plain, err := s1.Flood(FloodOptions{MaxSteps: 50000})
	if err != nil {
		t.Fatal(err)
	}
	chained, err := s2.Flood(FloodOptions{MaxSteps: 50000, Chaining: true})
	if err != nil {
		t.Fatal(err)
	}
	if chained.Time > plain.Time {
		t.Errorf("chaining (%d) slower than plain (%d)", chained.Time, plain.Time)
	}
}

func TestPaperBounds(t *testing.T) {
	cfg := validConfig()
	b, err := PaperBounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.CellSide <= 0 || b.CellSide > cfg.R/math.Sqrt(5)+1e-9 {
		t.Errorf("CellSide = %v", b.CellSide)
	}
	if !b.SpeedOK {
		t.Errorf("v=0.3 <= %v must pass", b.SpeedBound)
	}
	if b.CentralZoneTime != 18*cfg.L/cfg.R {
		t.Errorf("CentralZoneTime = %v", b.CentralZoneTime)
	}
	if b.UpperBound <= 0 || b.SuburbDiameter <= 0 {
		t.Errorf("bounds = %+v", b)
	}
	if b.SuburbEmpty != (cfg.R >= b.LargeRThreshold) {
		t.Error("SuburbEmpty inconsistent")
	}
	bad := cfg
	bad.N = 1
	if _, err := PaperBounds(bad); err == nil {
		t.Error("want validation error")
	}
}

func TestSpatialDensity(t *testing.T) {
	d, err := SpatialDensity(10, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1.5/100) > 1e-12 {
		t.Errorf("center density = %v, want 0.015", d)
	}
	if _, err := SpatialDensity(0, 1, 1); err == nil {
		t.Error("want side error")
	}
}

func TestDensityField(t *testing.T) {
	f, err := DensityField(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 4 || len(f[0]) != 4 {
		t.Fatal("field shape wrong")
	}
	// Center cells denser than corner cells.
	if f[0][0] >= f[1][1] {
		t.Error("corner not sparser than interior")
	}
	// Symmetric.
	if math.Abs(f[0][0]-f[3][3]) > 1e-12 {
		t.Error("field not symmetric")
	}
	if _, err := DensityField(10, 0); err == nil {
		t.Error("want bins error")
	}
	if _, err := DensityField(-1, 4); err == nil {
		t.Error("want side error")
	}
}

func TestPauseConfig(t *testing.T) {
	cfg := validConfig()
	cfg.Pause = 100
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Flood(FloodOptions{MaxSteps: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Errorf("paused flood incomplete: %+v", res)
	}
	// Invalid combinations.
	bad := validConfig()
	bad.Pause = -1
	if _, err := New(bad); err == nil {
		t.Error("want negative-pause error")
	}
	bad = validConfig()
	bad.Pause = 10
	bad.Model = RWP
	if _, err := New(bad); err == nil {
		t.Error("want pause-model error")
	}
	bad = validConfig()
	bad.Pause = 10
	bad.Init = Cold
	if _, err := New(bad); err == nil {
		t.Error("want pause-init error")
	}
}

func TestWorkersConfig(t *testing.T) {
	cfg := validConfig()
	cfg.Workers = 4
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s1.Step()
		s2.Step()
	}
	for i := 0; i < cfg.N; i++ {
		if s1.Position(i) != s2.Position(i) {
			t.Fatal("parallel facade run diverged from sequential")
		}
	}
}

func TestFloodDeterminism(t *testing.T) {
	cfg := validConfig()
	s1, _ := New(cfg)
	s2, _ := New(cfg)
	r1, err := s1.Flood(FloodOptions{MaxSteps: 50000})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Flood(FloodOptions{MaxSteps: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r1.CZTime != r2.CZTime || r1.Source != r2.Source {
		t.Errorf("non-deterministic: %+v vs %+v", r1, r2)
	}
}
