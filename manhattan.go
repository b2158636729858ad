// Package manhattan is a simulation library for information flooding over
// Mobile Ad-hoc NETworks under the Manhattan Random Way-Point (MRWP)
// mobility model, reproducing "Fast Flooding over Manhattan" (Clementi,
// Monti, Silvestri; PODC 2010, arXiv:1002.3757).
//
// n agents move at speed V over an L x L square, each repeatedly picking a
// uniform destination and travelling to it along one of the two L-shaped
// Manhattan shortest paths (chosen uniformly). Two agents exchange data iff
// they are within Euclidean distance R. The package provides:
//
//   - exact *perfect simulation* of the stationary regime (agents start
//     distributed by the closed-form laws of the paper's Theorems 1-2);
//   - the flooding protocol and its flooding-time measurement, with
//     Central-Zone/Suburb zone tracking;
//   - the paper's cell-partition analysis (Definition 4, Lemmas 6-9 and
//     15) and every closed-form bound (Theorems 3, 10, 18; Corollary 12);
//   - baseline mobility models (straight-line RWP, random walk, random
//     direction) and gossip protocol variants for comparison.
//
// Quick start:
//
//	sim, err := manhattan.New(manhattan.Config{N: 4000, L: 63.2, R: 5, V: 0.3, Seed: 1})
//	if err != nil { ... }
//	res, err := sim.Flood(manhattan.FloodOptions{Source: manhattan.SourceCenter, MaxSteps: 50000})
//	fmt.Println("flooding time:", res.Time)
package manhattan

import (
	"context"
	"fmt"
	"math"

	"manhattanflood/internal/cells"
	"manhattanflood/internal/core"
	"manhattanflood/internal/dist"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/mobility"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/theory"
)

// Point is a position in the square [0, L] x [0, L].
type Point struct {
	X, Y float64
}

// Model selects the mobility model.
type Model uint8

// Supported mobility models.
const (
	// MRWP is the paper's Manhattan Random Way-Point model (default).
	MRWP Model = iota
	// RWP is the classic straight-line Random Way-Point baseline.
	RWP
	// RandomWalk is the uniform-stationary-density baseline of the
	// authors' earlier work.
	RandomWalk
	// RandomDirection travels straight for random durations, reflecting at
	// the boundary.
	RandomDirection
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case MRWP:
		return "mrwp"
	case RWP:
		return "rwp"
	case RandomWalk:
		return "random-walk"
	case RandomDirection:
		return "random-direction"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// Init selects how agents are initialized.
type Init uint8

// Initialization modes.
const (
	// Stationary starts the system exactly in the stationary regime
	// (perfect simulation; default). This is the paper's standing
	// assumption "in the stationary phase".
	Stationary Init = iota
	// Cold places agents uniformly with fresh destinations; the system
	// then needs a warm-up to converge.
	Cold
)

// Config parameterizes a Simulation.
type Config struct {
	// N is the number of agents.
	N int
	// L is the square's side length. The paper's standard case is
	// L = sqrt(N).
	L float64
	// R is the transmission radius.
	R float64
	// V is the agent speed per time step. The paper's slow-mobility
	// assumption is V <= R/(3(1+sqrt5)); Bounds().SpeedBound reports it.
	V float64
	// Seed makes runs reproducible; identical Config => identical run.
	Seed uint64
	// Model selects the mobility model (default MRWP).
	Model Model
	// Init selects the initializer (default Stationary).
	Init Init
	// Workers > 1 steps agents on that many goroutines; results are
	// bit-identical to sequential runs (agents are independent).
	Workers int
	// Tiles > 0 partitions the torus into Tiles x Tiles tiles: the
	// flooding sweep runs per-tile passes with whole-tile frontier skips,
	// and the spatial index shards its delta sync over the workers.
	// Results are bit-identical to the flat world at any tile count;
	// worthwhile for sparse floods from ~100k agents up (see
	// ARCHITECTURE.md, "The tiled world").
	Tiles int
	// Pause > 0 adds Uniform(0, Pause) way-point pauses to the MRWP model
	// (the classic RWP-literature variant). Only valid with Model == MRWP
	// and Init == Stationary; the stationary law becomes the mixture
	// q/L^2 + (1-q) f with q the paused fraction.
	Pause float64
}

// StandardConfig returns the paper's standard parameterization for n
// agents: L = sqrt(n), with the given radius and speed.
func StandardConfig(n int, r, v float64, seed uint64) Config {
	return Config{N: n, L: math.Sqrt(float64(n)), R: r, V: v, Seed: seed}
}

func (c Config) factory() (sim.ModelFactory, error) {
	if c.Pause < 0 {
		return nil, fmt.Errorf("manhattan: Pause must be non-negative, got %v", c.Pause)
	}
	if c.Pause > 0 && (c.Model != MRWP || c.Init != Stationary) {
		return nil, fmt.Errorf("manhattan: Pause requires Model == MRWP with Stationary init")
	}
	switch c.Model {
	case MRWP:
		if c.Pause > 0 {
			return sim.PausedMRWPFactory(c.Pause), nil
		}
		if c.Init == Cold {
			return sim.MRWPFactory(mobility.WithInit(mobility.InitUniform)), nil
		}
		return sim.MRWPFactory(), nil
	case RWP:
		if c.Init == Cold {
			return sim.RWPFactory(mobility.WithRWPInit(mobility.InitUniform)), nil
		}
		return sim.RWPFactory(), nil
	case RandomWalk:
		return sim.RandomWalkFactory(), nil
	case RandomDirection:
		return sim.RandomDirectionFactory(), nil
	default:
		return nil, fmt.Errorf("manhattan: unknown model %v", c.Model)
	}
}

// Simulation is a running MANET.
type Simulation struct {
	cfg  Config
	w    *sim.World
	part *cells.Partition

	// Observation state (observer.go): the attached Observer, the flag
	// suppressing the world-hook emission while Flood emits richer views,
	// and the sticky error of a world-only observation failure.
	obs    Observer
	inRun  bool
	obsErr error
}

// New creates a simulation from cfg. The world is fully initialized (and,
// for Stationary init, already in the stationary regime) at time 0.
func New(cfg Config) (*Simulation, error) {
	factory, err := cfg.factory()
	if err != nil {
		return nil, err
	}
	w, err := sim.NewWorld(sim.Params{
		N: cfg.N, L: cfg.L, R: cfg.R, V: cfg.V,
		Seed: cfg.Seed, Workers: cfg.Workers, Tiles: cfg.Tiles,
	}, factory)
	if err != nil {
		return nil, fmt.Errorf("manhattan: %w", err)
	}
	s := &Simulation{cfg: cfg, w: w}
	if cfg.N >= 2 {
		// The partition is well-defined for any parameters; failures are
		// configuration errors already caught above.
		part, err := cells.NewPartition(cfg.L, cfg.R, cfg.N)
		if err != nil {
			return nil, fmt.Errorf("manhattan: %w", err)
		}
		s.part = part
	}
	return s, nil
}

// Config returns the simulation's configuration.
func (s *Simulation) Config() Config { return s.cfg }

// Time returns the number of elapsed steps.
func (s *Simulation) Time() int { return s.w.Time() }

// Step advances the world one time unit.
func (s *Simulation) Step() { s.w.Step() }

// Positions returns a copy of all agent positions. It allocates a fresh
// slice on every call — a cold-path snapshot accessor for one-off reads
// (examples, debugging). Code that needs positions every step should
// Attach an Observer instead and read StepView's live X/Y columns, which
// alias the simulation's state and cost nothing to expose.
func (s *Simulation) Positions() []Point {
	xs, ys := s.w.X(), s.w.Y()
	out := make([]Point, s.w.N())
	for i := range out {
		out[i] = Point{xs[i], ys[i]}
	}
	return out
}

// Position returns agent i's position.
func (s *Simulation) Position(i int) Point {
	p := s.w.Position(i)
	return Point{p.X, p.Y}
}

// NearestAgent returns the id of the agent nearest to pt.
func (s *Simulation) NearestAgent(pt Point) int {
	return s.w.NearestAgent(geom.Pt(pt.X, pt.Y))
}

// InCentralZone reports whether pt lies in a Central Zone cell
// (Definition 4).
func (s *Simulation) InCentralZone(pt Point) bool {
	if s.part == nil {
		return false
	}
	return s.part.IsCentralPoint(geom.Pt(pt.X, pt.Y))
}

// ZoneStats describes the cell partition of the current configuration.
type ZoneStats struct {
	CellsPerSide   int
	CellSide       float64
	CentralCells   int
	SuburbCells    int
	SuburbDiameter float64 // Lemma 15's S
}

// Zones returns the partition statistics.
func (s *Simulation) Zones() ZoneStats {
	if s.part == nil {
		return ZoneStats{}
	}
	return ZoneStats{
		CellsPerSide:   s.part.M(),
		CellSide:       s.part.Ell(),
		CentralCells:   s.part.CentralCount(),
		SuburbCells:    s.part.SuburbCount(),
		SuburbDiameter: s.part.SuburbDiameterS(),
	}
}

// SnapshotStats summarizes the communication graph G_t of the current
// step.
type SnapshotStats struct {
	Connected     bool
	Components    int
	GiantFraction float64
	AvgDegree     float64
	MinDegree     float64
}

// Snapshot computes connectivity statistics of the current step's disk
// graph.
func (s *Simulation) Snapshot() (SnapshotStats, error) {
	g, err := s.w.SnapshotGraph()
	if err != nil {
		return SnapshotStats{}, fmt.Errorf("manhattan: %w", err)
	}
	u := g.Components()
	return SnapshotStats{
		Connected:     g.IsConnected(),
		Components:    u.Sets(),
		GiantFraction: g.GiantFraction(),
		AvgDegree:     g.AvgDegree(),
		MinDegree:     float64(g.MinDegree()),
	}, nil
}

// Source selects where a flooding run's source agent is placed.
type Source uint8

// Source placements.
const (
	// SourceCenter uses the agent nearest the square's center (a Central
	// Zone source — the first case of Theorem 3's proof).
	SourceCenter Source = iota
	// SourceCorner uses the agent nearest the origin (a Suburb source —
	// the second case).
	SourceCorner
	// SourceRandom uses agent 0 (a stationary-law random position).
	SourceRandom
	// SourceExplicit uses the SourceAgent field as the source agent id,
	// with 0 allowed.
	SourceExplicit
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceCenter:
		return "center"
	case SourceCorner:
		return "corner"
	case SourceRandom:
		return "random"
	case SourceExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// DefaultMaxSteps is the step budget used by every run entry point
// (Flood, FloodTree, RunProtocol) when MaxSteps is zero or negative.
const DefaultMaxSteps = 100000

// runSpec is the option subset every run entry point resolves identically:
// source placement, explicit source override, and the step budget. One
// resolver (resolveRun) replaces the per-entry-point copies that used to
// drift.
type runSpec struct {
	source      Source
	sourceAgent int
	maxSteps    int
}

// resolveRun applies the shared defaulting rules: MaxSteps <= 0 becomes
// DefaultMaxSteps; SourceExplicit makes sourceAgent authoritative (0
// allowed, range-checked); otherwise the Source placement picks the agent
// and a non-zero sourceAgent is an error, not a silent override.
func (s *Simulation) resolveRun(rs runSpec) (source, maxSteps int, err error) {
	maxSteps = rs.maxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	switch {
	case rs.source == SourceExplicit:
		source = rs.sourceAgent
		if source < 0 || source >= s.cfg.N {
			return 0, 0, fmt.Errorf("manhattan: explicit source agent %d out of range [0, %d)", source, s.cfg.N)
		}
	case rs.sourceAgent != 0:
		return 0, 0, fmt.Errorf("manhattan: source agent %d set with source placement %v; use SourceExplicit", rs.sourceAgent, rs.source)
	default:
		central, corner := core.SourcePair(s.w)
		switch rs.source {
		case SourceCorner:
			source = corner
		case SourceRandom:
			source = 0
		case SourceCenter:
			source = central
		default:
			return 0, 0, fmt.Errorf("manhattan: unknown source placement %v", rs.source)
		}
	}
	return source, maxSteps, nil
}

// FloodOptions configures a flooding run.
type FloodOptions struct {
	// Ctx cancels the run between flood steps when non-nil: the run stops
	// at the next step boundary and Flood returns the partial result
	// alongside the context's error. A nil Ctx never cancels.
	Ctx context.Context
	// Source places the initially informed agent (default SourceCenter).
	// With SourceExplicit, SourceAgent is the source (0 allowed).
	Source Source
	// SourceAgent is the source agent id when Source is SourceExplicit,
	// and must be 0 otherwise: the run returns an error rather than let a
	// stray id override the placement.
	SourceAgent int
	// MaxSteps bounds the run (default DefaultMaxSteps).
	MaxSteps int
	// TrackZones records the Central Zone completion time and Suburb lag
	// (default true when the partition exists).
	TrackZones bool
	// Chaining enables the within-step epidemic ablation (default false:
	// the paper's strict one-hop-per-step rule).
	Chaining bool
	// RecordSeries stores the informed-count time series in the result.
	RecordSeries bool
}

// FloodResult reports a flooding run.
type FloodResult struct {
	// Completed reports whether all agents were informed within MaxSteps.
	Completed bool
	// Time is the flooding time in steps (or the exhausted budget).
	Time int
	// CZTime is the first step with every Central Zone cell informed
	// (-1 when not tracked/reached).
	CZTime int
	// SuburbLag is Time - CZTime (-1 when unknown): the paper's second
	// phase, bounded by O(S/v).
	SuburbLag int
	// Informed is the final number of informed agents.
	Informed int
	// Source is the agent id the flood started from.
	Source int
	// Series is the informed count per step when RecordSeries was set.
	Series []int
}

// Flood runs the paper's flooding protocol on this simulation, advancing
// the world until every agent is informed or the budget is exhausted. The
// simulation can be reused afterwards (time keeps advancing).
func (s *Simulation) Flood(opts FloodOptions) (FloodResult, error) {
	source, maxSteps, err := s.resolveRun(runSpec{
		source: opts.Source, sourceAgent: opts.SourceAgent, maxSteps: opts.MaxSteps,
	})
	if err != nil {
		return FloodResult{}, err
	}
	var coreOpts []core.FloodOption
	if (opts.TrackZones || opts.Source == SourceCenter) && s.part != nil {
		coreOpts = append(coreOpts, core.WithPartition(s.part))
	}
	if opts.Chaining {
		coreOpts = append(coreOpts, core.WithinStepChaining(true))
	}
	if opts.RecordSeries {
		coreOpts = append(coreOpts, core.WithSeries(true))
	}
	f, err := core.NewFlooding(s.w, source, coreOpts...)
	if err != nil {
		return FloodResult{}, fmt.Errorf("manhattan: %w", err)
	}
	if obs := s.floodObserver(f.Informed); obs != nil {
		// The flood loop emits the rich views; silence the world hook for
		// the duration so each step produces exactly one view.
		core.WithStepObserver(obs)(f)
		s.inRun = true
		defer func() { s.inRun = false }()
	}
	res, err := f.RunContext(opts.Ctx, maxSteps)
	out := FloodResult{
		Completed: res.Completed,
		Time:      res.Time,
		CZTime:    res.CZTime,
		SuburbLag: res.SuburbLag,
		Informed:  res.Informed,
		Source:    source,
		Series:    f.Series(),
	}
	if err != nil {
		// A canceled run still reports how far it got; the caller decides
		// whether the partial result is worth keeping.
		return out, fmt.Errorf("manhattan: %w", err)
	}
	return out, nil
}

// Bounds carries every closed-form quantity the paper predicts for a
// configuration.
type Bounds struct {
	// CellSide is the partition cell side l (Inequality 6).
	CellSide float64
	// SpeedBound is Inequality 8's cap R/(3(1+sqrt5)).
	SpeedBound float64
	// SpeedOK reports V <= SpeedBound.
	SpeedOK bool
	// CentralZoneTime is Theorem 10's 18 L/R.
	CentralZoneTime float64
	// SuburbDiameter is Lemma 15's S.
	SuburbDiameter float64
	// SuburbPhase is Lemma 16's 590 S/v budget.
	SuburbPhase float64
	// UpperBound is Theorem 3's shape L/R + (L/v)(L^2/R^2)(log n/n) with
	// unit constants.
	UpperBound float64
	// LargeRThreshold is Corollary 12's radius above which the Suburb is
	// empty.
	LargeRThreshold float64
	// SuburbEmpty reports R >= LargeRThreshold.
	SuburbEmpty bool
	// LowerBoundApplies reports Theorem 18's hypothesis R <= L/n^(1/3).
	LowerBoundApplies bool
	// LowerBound is Theorem 18's Omega(L/(v n^(1/3))) (unit constant).
	LowerBound float64
}

// PaperBounds evaluates every closed-form prediction for cfg.
func PaperBounds(cfg Config) (Bounds, error) {
	tp := theory.Params{N: cfg.N, L: cfg.L, R: cfg.R, V: cfg.V}
	if err := tp.Validate(); err != nil {
		return Bounds{}, fmt.Errorf("manhattan: %w", err)
	}
	return Bounds{
		CellSide:          tp.CellSide(),
		SpeedBound:        tp.SpeedBound(),
		SpeedOK:           tp.SpeedAssumptionOK(),
		CentralZoneTime:   tp.CentralZoneTimeBound(),
		SuburbDiameter:    tp.SuburbDiameterS(),
		SuburbPhase:       tp.SuburbPhaseBound(),
		UpperBound:        tp.FloodingUpperBound(),
		LargeRThreshold:   tp.LargeRThreshold(),
		SuburbEmpty:       tp.SuburbEmpty(),
		LowerBoundApplies: tp.Theorem18Applicable(),
		LowerBound:        tp.Theorem18LowerBound(),
	}, nil
}

// SpatialDensity evaluates the stationary spatial density f(x, y) of
// Theorem 1 for side length l.
func SpatialDensity(l, x, y float64) (float64, error) {
	sp, err := dist.NewSpatial(l)
	if err != nil {
		return 0, fmt.Errorf("manhattan: %w", err)
	}
	return sp.Density(x, y), nil
}

// DensityField samples the Theorem 1 density on a bins x bins grid of cell
// centers (row-major, field[iy][ix]); ready for trace/ASCII/PGM rendering
// or comparison against an empirical histogram.
func DensityField(l float64, bins int) ([][]float64, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("manhattan: bins must be positive, got %d", bins)
	}
	sp, err := dist.NewSpatial(l)
	if err != nil {
		return nil, fmt.Errorf("manhattan: %w", err)
	}
	field := make([][]float64, bins)
	w := l / float64(bins)
	for iy := 0; iy < bins; iy++ {
		field[iy] = make([]float64, bins)
		for ix := 0; ix < bins; ix++ {
			field[iy][ix] = sp.Density((float64(ix)+0.5)*w, (float64(iy)+0.5)*w)
		}
	}
	return field, nil
}
