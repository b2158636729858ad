package core

import (
	"math"

	"manhattanflood/internal/sim"
)

// TreeFlooding is plain flooding instrumented with the infection tree: for
// every agent it records who informed it and when, yielding the message's
// propagation skeleton. The tree separates the two transport modes the
// paper's analysis distinguishes — relay hops across the dense Central
// Zone (many hops, one step each) and courier legs across the Suburb (one
// parent-child edge whose timestamps are many steps apart while an agent
// physically carries the message).
//
// Its rounds are Flooding rounds: plain flooding informs exactly the
// agents tree flooding does, so the tree only adds a parent pass over
// each round's newly informed agents. The flood is a field, not an
// embedding, so no Round or Reset can skip that pass.
type TreeFlooding struct {
	fl     *Flooding
	parent []int32 // informing agent; -1 for the source and the uninformed
	when   []int32 // step informed; -1 while uninformed
	depth  []int32 // hops from the source
	cand   []int32 // scratch: CSR positions of one block's candidate parents
}

// NewTreeFlooding creates an instrumented flooding process with the given
// source.
func NewTreeFlooding(w *sim.World, source int) (*TreeFlooding, error) {
	fl, err := NewFlooding(w, source)
	if err != nil {
		return nil, err
	}
	f := &TreeFlooding{
		fl:     fl,
		parent: make([]int32, w.N()),
		when:   make([]int32, w.N()),
		depth:  make([]int32, w.N()),
	}
	for i := range f.parent {
		f.parent[i] = -1
		f.when[i] = -1
	}
	f.when[source] = 0
	return f, nil
}

// Done reports whether every agent is informed.
func (f *TreeFlooding) Done() bool { return f.fl.Done() }

// InformedCount returns the number of informed agents.
func (f *TreeFlooding) InformedCount() int { return f.fl.InformedCount() }

// Source returns the source agent id.
func (f *TreeFlooding) Source() int { return f.fl.Source() }

// Step advances the world and performs one transmission round (a Flooding
// step), then records a parent for every agent the round informed: the
// closest agent informed before this round, ties by lowest id, which
// makes the tree deterministic. Distances use kernel.Hit's arithmetic
// (no FMA), so the parent is always one of the transmitters the round's
// own test heard.
func (f *TreeFlooding) Step() int {
	newly := f.fl.Step()
	ix := f.fl.index()
	r2 := ix.Radius() * ix.Radius()
	now := int32(f.fl.w.Time())
	xs, ys := ix.XS(), ix.YS()
	// No settle here: every candidate parent sits in a transmitter row of
	// the child's 3x3 block, which the round planned and settled when it
	// evaluated the child's bucket. A row it left pending holds no agent
	// informed before this round, and the when test rejects such an agent
	// before its (possibly stale) coordinates are read.
	ids, cxs, cys := ix.SettleCSR(nil)
	when := f.when
	// The round lists its hits bucket by bucket, so the children of one
	// bucket share one gather of their block's candidate parents.
	cand, bucket := f.cand[:0], -1
	for _, c := range f.fl.fresh {
		if b := ix.Cell(int(c)); b != bucket {
			bucket, cand = b, cand[:0]
			x0, x1, y0, y1 := ix.BlockBoundsCell(b)
			for by := y0; by <= y1; by++ {
				lo, hi := ix.RowSpanBounds(by, x0, x1)
				for k := lo; k < hi; k++ {
					if t := when[ids[k]]; t >= 0 && t != now {
						cand = append(cand, k)
					}
				}
			}
		}
		px, py := xs[c], ys[c]
		best, bestD := int32(-1), math.Inf(1)
		for _, k := range cand {
			dx := cxs[k] - px
			dy := cys[k] - py
			d := float64(dx*dx) + float64(dy*dy)
			if j := ids[k]; d <= r2 && (d < bestD || (d == bestD && j < best)) {
				best, bestD = j, d
			}
		}
		f.parent[c] = best
		f.depth[c] = f.depth[best] + 1
		when[c] = now
	}
	f.cand = cand
	return newly
}

// TreeStats summarizes the completed infection tree.
type TreeStats struct {
	// MaxDepth is the largest hop count from the source.
	MaxDepth int
	// MeanDepth is the average hop count over informed agents.
	MeanDepth float64
	// MaxEdgeDelay is the largest timestamp gap between a child and its
	// parent's informing; a delay of 1 is a pure relay hop, larger delays
	// mean the parent carried the message before handing it over (the
	// Suburb's courier mode).
	MaxEdgeDelay int
	// CourierEdges counts edges with delay above 1.
	CourierEdges int
	// CourierFraction is CourierEdges over all tree edges.
	CourierFraction float64
	// Informed is the number of informed agents (tree nodes).
	Informed int
}

// Stats computes the tree statistics for the current state.
func (f *TreeFlooding) Stats() TreeStats {
	st := TreeStats{Informed: f.fl.count}
	var sum float64
	edges := 0
	for i, p := range f.parent {
		if f.when[i] < 0 {
			continue
		}
		sum += float64(f.depth[i])
		st.MaxDepth = max(st.MaxDepth, int(f.depth[i]))
		if p >= 0 {
			edges++
			delay := int(f.when[i] - f.when[p])
			st.MaxEdgeDelay = max(st.MaxEdgeDelay, delay)
			if delay > 1 {
				st.CourierEdges++
			}
		}
	}
	st.MeanDepth = sum / float64(st.Informed)
	if edges > 0 {
		st.CourierFraction = float64(st.CourierEdges) / float64(edges)
	}
	return st
}
