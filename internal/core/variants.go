package core

import (
	"fmt"
	"math/rand/v2"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/kernel"
	"manhattanflood/internal/sim"
)

// ParsimoniousFlooding is the probabilistic-forwarding variant studied by
// Baumann, Crescenzi and Fraigniaud (the paper's reference [3]): every
// informed agent transmits at each step independently with probability p.
// With p = 1 it coincides with plain flooding. It trades completion time
// for transmission count — both are reported.
type ParsimoniousFlooding struct {
	w        *sim.World
	p        float64
	rng      *rand.Rand
	informed []bool
	count    int
	active   []bool   // scratch: who transmits this round
	actBits  []uint64 // scratch: active-by-CSR-position bitmap (kernel filter)
	newly    []int32  // scratch: this round's hits
	// Transmissions counts how many agent-transmissions were performed.
	transmissions int64
}

// NewParsimoniousFlooding creates the variant with forwarding probability
// p in (0, 1].
func NewParsimoniousFlooding(w *sim.World, source int, p float64, seed uint64) (*ParsimoniousFlooding, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil world")
	}
	if source < 0 || source >= w.N() {
		return nil, fmt.Errorf("core: source %d out of range [0, %d)", source, w.N())
	}
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("core: forwarding probability %v outside (0, 1]", p)
	}
	f := &ParsimoniousFlooding{
		w:        w,
		p:        p,
		rng:      rand.New(rand.NewPCG(seed, 0xf100d)),
		informed: make([]bool, w.N()),
		count:    1,
	}
	f.informed[source] = true
	return f, nil
}

// InformedCount returns the number of informed agents.
func (f *ParsimoniousFlooding) InformedCount() int { return f.count }

// Transmissions returns the cumulative number of transmissions performed.
func (f *ParsimoniousFlooding) Transmissions() int64 { return f.transmissions }

// Done reports whether every agent is informed.
func (f *ParsimoniousFlooding) Done() bool { return f.count == f.w.N() }

// Step advances the world and performs one probabilistic transmission
// round, returning the number of newly informed agents.
func (f *ParsimoniousFlooding) Step() int {
	f.w.Step()
	ix := f.w.Index()
	r := ix.Radius()
	r2 := r * r
	// Decide which informed agents transmit this round.
	if f.active == nil {
		f.active = make([]bool, len(f.informed))
	} else {
		clear(f.active)
	}
	for i, inf := range f.informed {
		if inf && f.rng.Float64() < f.p {
			f.active[i] = true
			f.transmissions++
		}
	}
	xs, ys := ix.XS(), ix.YS()
	ids, cxs, cys := ix.CSR()
	// Active-by-CSR-position bitmap: the kernel filter for this round's
	// transmitter test — only a p-fraction of the informed transmit, so
	// the filter keeps the silent agents out of the fold entirely.
	nw := kernel.Words(len(ids))
	if cap(f.actBits) < nw {
		f.actBits = make([]uint64, nw)
	}
	actBits := f.actBits[:nw]
	clear(actBits)
	for k, id := range ids {
		if f.active[id] {
			actBits[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	f.actBits = actBits
	newly := f.newly[:0]
	for i := range f.informed {
		if f.informed[i] {
			continue
		}
		px, py := xs[i], ys[i]
		x0, x1, y0, y1 := ix.BlockBoundsXY(px, py)
		for by := y0; by <= y1; by++ {
			lo, hi := ix.RowSpanBounds(by, x0, x1)
			if lo >= hi {
				continue
			}
			if kernel.AnyHit(cxs[lo:hi], cys[lo:hi], px, py, r2, actBits, int(lo)) {
				newly = append(newly, int32(i))
				break
			}
		}
	}
	for _, i := range newly {
		f.informed[i] = true
	}
	f.newly = newly
	f.count += len(newly)
	return len(newly)
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
