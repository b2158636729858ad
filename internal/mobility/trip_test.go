package mobility

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/dist"
	"manhattanflood/internal/geom"
)

// tripCase is one hand-placed agent state: an L-path, the progress along
// it and (paused model only) the remaining pause.
type tripCase struct {
	path  geom.LPath
	d     float64
	pause float64
}

// boundaryTripCases places agents on a grid of dyadic coordinates, where
// a step of v lands exactly on corners and destinations, and non-dyadic
// ones, where Src plus the first leg's length can miss the corner by an
// ulp. It covers the degenerate shapes (a zero-length first or second
// leg, zero-length paths) and progress exactly at 0, at the corner, and
// one step or half a step before either end of a leg.
func boundaryTripCases(v float64, pauses []float64) []tripCase {
	coords := []float64{0, 0.1, 0.5, 0.7, 1.5, 3.3, 4}
	var pts []geom.Point
	for _, x := range coords {
		for _, y := range coords {
			pts = append(pts, geom.Pt(x, y))
		}
	}
	var out []tripCase
	for _, src := range pts {
		for _, dst := range pts {
			for _, order := range []geom.LegOrder{geom.VerticalFirst, geom.HorizontalFirst} {
				lp := geom.NewLPath(src, dst, order)
				first, total := lp.FirstLegLength(), lp.Length()
				for _, d := range []float64{0, first - v, first - v/2, first, total - v, total - v/2} {
					if d < 0 || (d >= total && total > 0) {
						continue
					}
					for _, pause := range pauses {
						out = append(out, tripCase{path: lp, d: d, pause: pause})
					}
				}
			}
		}
	}
	return out
}

// gridSource is a rand.Source whose draws are mostly multiples of 1/8, so
// that on a side-4 square fresh trips, stationary initial states and pause
// lengths fall on a dyadic grid and keep hitting corners and destinations
// exactly; one draw in four is an arbitrary float.
type gridSource struct{ state uint64 }

func (g *gridSource) Uint64() uint64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	if g.state>>62 == 0 {
		return g.state
	}
	return (g.state >> 59 & 7) << 50 // Float64 = k/8
}

// TestTripColumnsExactBoundaries holds the trip-column populations to the
// AoS agents where the boundary comparisons of the exact loops tie:
// corner crossings that land on the corner, arrivals that land on the
// destination, degenerate legs, and (paused) pauses that end on a step
// boundary. Random stationary draws almost never produce these ties. Half
// the agents start in hand-placed states (boundaryTripCases), the other
// half from the models' own initializers; all draw from gridSource.
func TestTripColumnsExactBoundaries(t *testing.T) {
	type subject struct {
		name   string
		pauses []float64
		mk     func(cfg Config) (Model, error)
		// place puts AoS agent a and population slot i in state c.
		place func(a Agent, pop Population, i int, c tripCase)
	}
	subjects := []subject{
		{"mrwp", []float64{0}, func(cfg Config) (Model, error) { return NewMRWP(cfg) },
			func(a Agent, pop Population, i int, c tripCase) {
				ag := a.(*MRWPAgent)
				ag.setPath(c.path)
				ag.travelled = c.d
				ag.syncLeg()
				ag.pos = ag.path.At(c.d)
				pop.(*mrwpPop).place(i, c.path, c.d)
			}},
		{"mrwp-paused", []float64{0, 0.25, 1, 1.5}, func(cfg Config) (Model, error) { return NewPausedMRWP(cfg, 2) },
			func(a Agent, pop Population, i int, c tripCase) {
				ag := a.(*PausedAgent)
				ag.setPath(c.path)
				ag.travelled = c.d
				ag.pauseLeft = c.pause
				ag.pos = ag.path.At(c.d)
				pop.(*pausedPop).place(i, c.path, c.d, c.pause)
			}},
	}
	for _, sub := range subjects {
		for _, v := range []float64{0.25, 0.5, 1.5} {
			t.Run(fmt.Sprintf("%s/v=%g", sub.name, v), func(t *testing.T) {
				model, err := sub.mk(Config{L: 4, V: v})
				if err != nil {
					t.Fatal(err)
				}
				cases := boundaryTripCases(v, sub.pauses)
				n := 2 * len(cases)
				pop := model.NewPopulation(n)
				av := View{X: make([]float64, n), Y: make([]float64, n), Dirty: make([]bool, n)}
				pv := View{X: make([]float64, n), Y: make([]float64, n), Dirty: make([]bool, n)}
				pop.Bind(pv)
				agents := make([]Agent, n)
				for i := range agents {
					agents[i] = model.NewAgent(rand.New(&gridSource{state: uint64(i)}))
					pop.InitAgent(i, &gridSource{state: uint64(i)})
					if i < len(cases) {
						sub.place(agents[i], pop, i, cases[i])
					}
					agents[i].(SlotWriter).BindSlot(av, i)
				}
				pp := pop.(PopProber)
				for step := 0; step <= 12; step++ {
					clear(av.Dirty)
					clear(pv.Dirty)
					if step > 0 {
						for _, a := range agents {
							a.Step()
						}
						pop.StepRange(0, n)
					}
					for i := range agents {
						ap, sp := agents[i].(Prober).Probe(), pp.ProbeAgent(i)
						if ap != sp || av.X[i] != pv.X[i] || av.Y[i] != pv.Y[i] || av.Dirty[i] != pv.Dirty[i] {
							t.Fatalf("step %d, agent %d:\nAoS %+v dirty %v\nSoA %+v dirty %v",
								step, i, ap, av.Dirty[i], sp, pv.Dirty[i])
						}
					}
				}
			})
		}
	}
}

// startBranchy is the reference for tripCols.start: the trip written by
// setTrip, then the progress set by moveTo.
func startBranchy(t *tripCols, i int, lp geom.LPath, d float64, cornerOnSecond bool) geom.Point {
	t.setTrip(i, lp)
	return t.moveTo(i, d, cornerOnSecond)
}

// floatCols returns the ten float columns of t.
func (t *tripCols) floatCols() [][]float64 {
	return [][]float64{t.travelled, t.legS, t.legE, t.legT, t.legBX, t.legBY, t.legDX, t.legDY, t.dstX, t.dstY}
}

// slotBits returns every column of slot i as raw bits.
func slotBits(t *tripCols, i int) [12]uint64 {
	var out [12]uint64
	for k, col := range t.floatCols() {
		out[k] = math.Float64bits(col[i])
	}
	out[10], out[11] = uint64(t.leg1[i]), uint64(t.leg2[i])
	return out
}

// pointBits returns p's coordinates as raw bits.
func pointBits(p geom.Point) [2]uint64 {
	return [2]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)}
}

// TestStartMatchesBranchy holds the branch-free start to setTrip followed
// by moveTo, under both corner conventions, on the trips where its selects
// and its fallback could go wrong: the hand-placed boundary trips (zero-
// length legs, Src == Dst, d on the corner and one ulp either side of it,
// d at and one ulp below the length) and stationary draws from a
// tie-heavy stream and from PCG. Every column starts from the same junk
// in both copies, so a column one side leaves unwritten shows.
func TestStartMatchesBranchy(t *testing.T) {
	const l = 4.0
	var cases []tripCase
	for _, c := range boundaryTripCases(0.25, []float64{0}) {
		first, total := c.path.FirstLegLength(), c.path.Length()
		cases = append(cases, c)
		for _, d := range []float64{
			math.Nextafter(first, -1), math.Nextafter(first, l), total, math.Nextafter(total, -1),
		} {
			if d >= 0 && d <= total {
				cases = append(cases, tripCase{path: c.path, d: d})
			}
		}
	}
	ts, err := dist.NewTripSampler(l)
	if err != nil {
		t.Fatal(err)
	}
	grid, pcg := &gridSource{state: 1}, rand.NewPCG(1, 2)
	for k := 0; k < 20000; k++ {
		for _, src := range []rand.Source{grid, pcg} {
			tr := ts.Sample(src)
			cases = append(cases, tripCase{path: tr.Path, d: tr.Travelled})
		}
	}
	for _, cornerOnSecond := range []bool{true, false} {
		got, want := newTripCols(1), newTripCols(1)
		for k, c := range cases {
			for _, tc := range []*tripCols{&got, &want} {
				for _, col := range tc.floatCols() {
					col[0] = -7.5
				}
				tc.leg1[0], tc.leg2[0] = 9, 9
			}
			gp := got.start(0, c.path, c.d, cornerOnSecond)
			wp := startBranchy(&want, 0, c.path, c.d, cornerOnSecond)
			if pointBits(gp) != pointBits(wp) || slotBits(&got, 0) != slotBits(&want, 0) {
				t.Fatalf("cornerOnSecond=%v case %d (%+v, d=%v):\nstart          %v %x\nsetTrip+moveTo %v %x",
					cornerOnSecond, k, c.path, c.d, gp, slotBits(&got, 0), wp, slotBits(&want, 0))
			}
		}
	}
}
