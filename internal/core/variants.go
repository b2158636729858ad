package core

import (
	"fmt"
	"math/rand/v2"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/sim"
)

// ParsimoniousFlooding is the probabilistic-forwarding variant studied by
// Baumann, Crescenzi and Fraigniaud (the paper's reference [3]): every
// informed agent transmits at each step independently with probability p.
// Each round is a Flooding round over the step's drawn transmitters, so
// p = 1 is plain flooding. It trades completion time for transmission
// count — both are reported.
type ParsimoniousFlooding struct {
	fl            *Flooding
	p             float64
	rng           *rand.Rand
	active        []bool // who transmits this round: the flood's transmitter set
	transmissions int64
}

// NewParsimoniousFlooding creates the variant with forwarding probability
// p in (0, 1].
func NewParsimoniousFlooding(w *sim.World, source int, p float64, seed uint64) (*ParsimoniousFlooding, error) {
	fl, err := NewFlooding(w, source)
	if err != nil {
		return nil, err
	}
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("core: forwarding probability %v outside (0, 1]", p)
	}
	f := &ParsimoniousFlooding{
		fl:     fl,
		p:      p,
		rng:    rand.New(rand.NewPCG(seed, 0xf100d)),
		active: make([]bool, w.N()),
	}
	fl.tx = f.active
	return f, nil
}

// InformedCount returns the number of informed agents.
func (f *ParsimoniousFlooding) InformedCount() int { return f.fl.InformedCount() }

// Transmissions returns the cumulative number of transmissions performed.
func (f *ParsimoniousFlooding) Transmissions() int64 { return f.transmissions }

// Done reports whether every agent is informed.
func (f *ParsimoniousFlooding) Done() bool { return f.fl.Done() }

// Step draws which informed agents transmit, one draw per informed agent
// in id order, then runs a flooding step with them as the transmitters.
// It returns the number of newly informed agents.
func (f *ParsimoniousFlooding) Step() int {
	clear(f.active)
	for i, inf := range f.fl.informed {
		if inf && f.rng.Float64() < f.p {
			f.active[i] = true
			f.transmissions++
		}
	}
	return f.fl.Step()
}

// KGossip is the push-gossip variant: each informed agent forwards to at
// most k uniformly chosen neighbors per step instead of broadcasting to
// all. It models degree-limited radios; flooding is the k = infinity case.
type KGossip struct {
	w        *sim.World
	k        int
	rng      *rand.Rand
	informed []bool
	count    int
	scratch  []int
	marked   []bool  // reusable bitmap: targets already picked this step
	newly    []int32 // touched list: ids marked this step, in pick order
}

// NewKGossip creates the variant with fan-out k >= 1.
func NewKGossip(w *sim.World, source, k int, seed uint64) (*KGossip, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil world")
	}
	if source < 0 || source >= w.N() {
		return nil, fmt.Errorf("core: source %d out of range [0, %d)", source, w.N())
	}
	if k < 1 {
		return nil, fmt.Errorf("core: fan-out k must be >= 1, got %d", k)
	}
	g := &KGossip{
		w:        w,
		k:        k,
		rng:      rand.New(rand.NewPCG(seed, 0x905517)),
		informed: make([]bool, w.N()),
		marked:   make([]bool, w.N()),
		count:    1,
	}
	g.informed[source] = true
	return g, nil
}

// InformedCount returns the number of informed agents.
func (g *KGossip) InformedCount() int { return g.count }

// Done reports whether every agent is informed.
func (g *KGossip) Done() bool { return g.count == g.w.N() }

// Step advances the world and performs one gossip round, returning the
// number of newly informed agents. The per-step duplicate-target filter is
// a reusable bitmap plus a touched list (cleared id by id afterwards), so
// a steady-state round performs zero allocations — the same discipline as
// plain flooding.
func (g *KGossip) Step() int {
	g.w.Step()
	ix := g.w.Index()
	xs, ys := ix.XS(), ix.YS()
	newly := g.newly[:0]
	for i, inf := range g.informed {
		if !inf {
			continue
		}
		g.scratch = ix.Neighbors(geom.Point{X: xs[i], Y: ys[i]}, i, g.scratch[:0])
		// Reservoir-free selection: shuffle a copy of up to k targets.
		cand := g.scratch
		for pick := 0; pick < g.k && len(cand) > 0; pick++ {
			j := g.rng.IntN(len(cand))
			target := int32(cand[j])
			cand[j] = cand[len(cand)-1]
			cand = cand[:len(cand)-1]
			if !g.informed[target] && !g.marked[target] {
				g.marked[target] = true
				newly = append(newly, target)
			}
		}
	}
	for _, i := range newly {
		g.informed[i] = true
		g.marked[i] = false
	}
	g.newly = newly
	g.count += len(newly)
	return len(newly)
}
