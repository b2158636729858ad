package core

import (
	"fmt"
	"math"

	"manhattanflood/internal/kernel"
	"manhattanflood/internal/sim"
)

// TreeFlooding is plain flooding instrumented with the infection tree: for
// every agent it records who informed it and when, yielding the message's
// propagation skeleton. The tree separates the two transport modes the
// paper's analysis distinguishes — relay hops across the dense Central
// Zone (many hops, one step each) and courier legs across the Suburb (one
// parent-child edge whose timestamps are many steps apart while an agent
// physically carries the message).
type TreeFlooding struct {
	w        *sim.World
	informed []bool
	count    int
	source   int
	parent   []int32
	when     []int32
	hits     []treeHit // scratch: this step's (child, parent) pairs
	infBits  []uint64  // scratch: informed-by-CSR-position bitmap (kernel filter)
}

// treeHit is one newly informed agent and its chosen parent.
type treeHit struct {
	child, parent int32
}

// NewTreeFlooding creates an instrumented flooding process with the given
// source.
func NewTreeFlooding(w *sim.World, source int) (*TreeFlooding, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil world")
	}
	if source < 0 || source >= w.N() {
		return nil, fmt.Errorf("core: source %d out of range [0, %d)", source, w.N())
	}
	f := &TreeFlooding{
		w:        w,
		informed: make([]bool, w.N()),
		count:    1,
		source:   source,
		parent:   make([]int32, w.N()),
		when:     make([]int32, w.N()),
	}
	for i := range f.parent {
		f.parent[i] = -1
		f.when[i] = -1
	}
	f.informed[source] = true
	f.when[source] = 0
	return f, nil
}

// Done reports whether every agent is informed.
func (f *TreeFlooding) Done() bool { return f.count == f.w.N() }

// InformedCount returns the number of informed agents.
func (f *TreeFlooding) InformedCount() int { return f.count }

// Source returns the source agent id.
func (f *TreeFlooding) Source() int { return f.source }

// Step advances the world and performs one transmission round, recording
// parents. When several informed agents are in range, the closest one
// becomes the parent (ties by lowest id), which makes the tree
// deterministic. Candidates stream each row span through the batched
// radius kernel with an informed-by-CSR-position bitmap as the filter, so
// only actual (informed, in-range) hits reach the argmin; hits arrive in
// ascending CSR order, the same order the scalar scan visited them in.
func (f *TreeFlooding) Step() int {
	f.w.Step()
	ix := f.w.Index()
	r2 := ix.Radius() * ix.Radius()
	now := int32(f.w.Time())
	xs, ys := ix.XS(), ix.YS()
	ids, cxs, cys := ix.CSR()
	nw := kernel.Words(len(ids))
	if cap(f.infBits) < nw {
		f.infBits = make([]uint64, nw)
	}
	infBits := f.infBits[:nw]
	clear(infBits)
	for k, id := range ids {
		if f.informed[id] {
			infBits[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	newly := f.hits[:0]
	for i := range f.informed {
		if f.informed[i] {
			continue
		}
		px, py := xs[i], ys[i]
		best, bestD := int32(-1), math.Inf(1)
		x0, x1, y0, y1 := ix.BlockBoundsXY(px, py)
		for by := y0; by <= y1; by++ {
			lo, hi := ix.RowSpanBounds(by, x0, x1)
			if lo >= hi {
				continue
			}
			kernel.VisitHits(cxs[lo:hi], cys[lo:hi], px, py, r2, infBits, int(lo), func(k int) bool {
				j := ids[k]
				dx := cxs[k] - px
				dy := cys[k] - py
				if d := dx*dx + dy*dy; d < bestD || (d == bestD && j < best) {
					best, bestD = j, d
				}
				return true
			})
		}
		if best >= 0 {
			newly = append(newly, treeHit{child: int32(i), parent: best})
		}
	}
	for _, h := range newly {
		f.informed[h.child] = true
		f.parent[h.child] = h.parent
		f.when[h.child] = now
	}
	f.hits = newly
	f.count += len(newly)
	return len(newly)
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
	st := TreeStats{Informed: f.count}
	depth := make([]int32, len(f.parent))
	for i := range depth {
		depth[i] = -1
	}
	depth[f.source] = 0
	var depthOf func(i int32) int32
	depthOf = func(i int32) int32 {
		if depth[i] >= 0 {
			return depth[i]
		}
		if f.parent[i] < 0 {
			return -1 // uninformed
		}
		pd := depthOf(f.parent[i])
		if pd < 0 {
			return -1
		}
		depth[i] = pd + 1
		return depth[i]
	}
	var sum, cnt float64
	edges := 0
	for i := range f.parent {
		d := depthOf(int32(i))
		if d < 0 {
			continue
		}
		sum += float64(d)
		cnt++
		if int(d) > st.MaxDepth {
			st.MaxDepth = int(d)
		}
		if p := f.parent[i]; p >= 0 {
			edges++
			delay := int(f.when[i] - f.when[p])
			if delay > st.MaxEdgeDelay {
				st.MaxEdgeDelay = delay
			}
			if delay > 1 {
				st.CourierEdges++
			}
		}
	}
	if cnt > 0 {
		st.MeanDepth = sum / cnt
	}
	if edges > 0 {
		st.CourierFraction = float64(st.CourierEdges) / float64(edges)
	}
	return st
}
