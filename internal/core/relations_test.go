package core

import (
	"fmt"
	"testing"

	"manhattanflood/internal/kernel"
	"manhattanflood/internal/sim"
)

// Exact couplings between the dissemination processes. Each relation
// holds step by step between processes run on identically seeded worlds,
// so each is checked after every step, across the production shapes.

// protoShape is one world shape the protocol relations and oracles run on.
type protoShape struct {
	name    string
	p       sim.Params
	factory sim.ModelFactory
	corner  bool // source: the agent nearest the origin, else the centre
}

// relationSteps caps every relation run; plain flooding completes well
// within it on every shape.
const relationSteps = 200

// protocolShapes lists n-agent worlds (L = 30, R = 2) in every
// combination of: flat or 4x4 tiled; Workers 0 or 2; MRWP or paused
// MRWP; V/R = 0.15, where the index rebuilds every step, or 0.025, where
// it syncs by delta; and a centre or corner source.
func protocolShapes(n int) []protoShape {
	var out []protoShape
	for _, tiles := range []int{0, 4} {
		for _, workers := range []int{0, 2} {
			for _, paused := range []bool{false, true} {
				for _, v := range []float64{0.3, 0.05} {
					for _, corner := range []bool{false, true} {
						s := protoShape{
							name: fmt.Sprintf("t%d_w%d_paused=%v_v%v_corner=%v", tiles, workers, paused, v, corner),
							p: sim.Params{N: n, L: 30, R: 2, V: v, Seed: uint64(41 + len(out)),
								Tiles: tiles, Workers: workers},
							corner: corner,
						}
						if paused {
							s.factory = sim.PausedMRWPFactory(8)
						}
						out = append(out, s)
					}
				}
			}
		}
	}
	return out
}

// world builds a fresh world of the shape.
func (s protoShape) world(t *testing.T) *sim.World {
	t.Helper()
	w, err := sim.NewWorld(s.p, s.factory)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// source picks the shape's source agent in w.
func (s protoShape) source(w *sim.World) int {
	central, suburb := SourcePair(w)
	if s.corner {
		return suburb
	}
	return central
}

// requireSameInformed fails unless got and want flag the same agents.
func requireSameInformed(t *testing.T, step int, got, want []bool) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: agent %d informed=%v, want %v", step, i, got[i], want[i])
		}
	}
}

// Tree flooding informs the same agents at the same steps as plain
// flooding, and every tree edge joins agents within R at the child's
// step, its parent informed at an earlier step.
func TestTreeFloodingMatchesPlainFlooding(t *testing.T) {
	for _, s := range protocolShapes(500) {
		t.Run(s.name, func(t *testing.T) {
			w1, w2 := s.world(t), s.world(t)
			src := s.source(w1)
			plain, err := NewFlooding(w1, src)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := NewTreeFlooding(w2, src)
			if err != nil {
				t.Fatal(err)
			}
			r2 := s.p.R * s.p.R
			for step := 1; step <= relationSteps && !plain.Done(); step++ {
				plain.Step()
				tree.Step()
				now := int32(step)
				xs, ys := w2.X(), w2.Y()
				for i, inf := range plain.informed {
					if (tree.when[i] >= 0) != inf {
						t.Fatalf("step %d: agent %d informed %v in plain flooding, when = %d in the tree",
							step, i, inf, tree.when[i])
					}
				}
				for _, c := range plain.LastStepNewlyInformed() {
					if tree.when[c] != now {
						t.Fatalf("step %d: agent %d newly informed, tree time %d", step, c, tree.when[c])
					}
					p := tree.parent[c]
					if p < 0 || tree.when[p] < 0 || tree.when[p] >= now {
						t.Fatalf("step %d: child %d has parent %d informed at %d", step, c, p, tree.when[p])
					}
					if !kernel.Hit(xs[p], ys[p], xs[c], ys[c], r2) {
						t.Fatalf("step %d: tree edge %d -> %d is longer than R", step, p, c)
					}
				}
				if tree.InformedCount() != plain.InformedCount() {
					t.Fatalf("step %d: tree %d informed, plain %d", step, tree.InformedCount(), plain.InformedCount())
				}
			}
		})
	}
}

// Parsimonious flooding at p = 1 is plain flooding: the same informed
// set after every step, and one transmission per informed agent per step.
func TestParsimoniousPEqualOneMatchesFlooding(t *testing.T) {
	for _, s := range protocolShapes(500) {
		t.Run(s.name, func(t *testing.T) {
			w1, w2 := s.world(t), s.world(t)
			src := s.source(w1)
			plain, err := NewFlooding(w1, src)
			if err != nil {
				t.Fatal(err)
			}
			pars, err := NewParsimoniousFlooding(w2, src, 1, 7)
			if err != nil {
				t.Fatal(err)
			}
			var sent int64
			for step := 1; step <= relationSteps && !plain.Done(); step++ {
				sent += int64(plain.InformedCount())
				plain.Step()
				pars.Step()
				requireSameInformed(t, step, pars.fl.informed, plain.informed)
				if pars.Transmissions() != sent {
					t.Fatalf("step %d: %d transmissions, want %d", step, pars.Transmissions(), sent)
				}
			}
		})
	}
}

// Plain flooding informs a subset of what within-step chaining informs.
func TestPlainFloodingWithinChained(t *testing.T) {
	for _, s := range protocolShapes(500) {
		t.Run(s.name, func(t *testing.T) {
			w1, w2 := s.world(t), s.world(t)
			src := s.source(w1)
			plain, err := NewFlooding(w1, src)
			if err != nil {
				t.Fatal(err)
			}
			chained, err := NewFlooding(w2, src, WithinStepChaining(true))
			if err != nil {
				t.Fatal(err)
			}
			for step := 1; step <= relationSteps && !plain.Done(); step++ {
				plain.Step()
				chained.Step()
				for i, inf := range plain.informed {
					if inf && !chained.informed[i] {
						t.Fatalf("step %d: agent %d informed by plain flooding, not by chained", step, i)
					}
				}
			}
		})
	}
}

// k-gossip with a fan-out of at least n forwards to every neighbour, so
// it is plain flooding. The k-gossip round rescans every informed agent's
// neighbourhood, so this relation runs on the single-worker shapes from
// the centre only.
func TestKGossipUnboundedFanOutMatchesFlooding(t *testing.T) {
	for _, s := range protocolShapes(400) {
		if s.p.Workers != 0 || s.corner {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			w1, w2 := s.world(t), s.world(t)
			src := s.source(w1)
			plain, err := NewFlooding(w1, src)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewKGossip(w2, src, s.p.N, 5)
			if err != nil {
				t.Fatal(err)
			}
			for step := 1; step <= relationSteps && !plain.Done(); step++ {
				plain.Step()
				g.Step()
				requireSameInformed(t, step, g.informed, plain.informed)
			}
		})
	}
}
