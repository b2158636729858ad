package spatialindex

import (
	"math/rand/v2"
	"slices"
	"testing"

	"manhattanflood/internal/geom"
)

// RebuildXY and the []geom.Point Rebuild wrapper must produce identical
// indexes: same CSR arrays, same cells, same query answers.
func TestRebuildXYMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	const side, radius = 15.0, 1.75
	a, err := New(side, radius)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(side, radius)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		pts := randPts(rng, 300+trial*150, side)
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		a.Rebuild(pts)
		b.RebuildXY(xs, ys)
		if a.Len() != b.Len() {
			t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
		}
		for i := range pts {
			if a.XS()[i] != b.XS()[i] || a.YS()[i] != b.YS()[i] {
				t.Fatalf("point %d differs: (%v, %v) vs (%v, %v)", i, a.XS()[i], a.YS()[i], b.XS()[i], b.YS()[i])
			}
			if a.Cell(i) != b.Cell(i) {
				t.Fatalf("cell of %d differs: %d vs %d", i, a.Cell(i), b.Cell(i))
			}
		}
		aIDs, aXS, aYS := a.CSR()
		bIDs, bXS, bYS := b.CSR()
		for k := range aIDs {
			if aIDs[k] != bIDs[k] || aXS[k] != bXS[k] || aYS[k] != bYS[k] {
				t.Fatalf("CSR slot %d differs", k)
			}
		}
		q := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		an := a.Neighbors(q, -1, nil)
		bn := b.Neighbors(q, -1, nil)
		if len(an) != len(bn) {
			t.Fatalf("neighbor counts differ: %d vs %d", len(an), len(bn))
		}
	}
}

// The CSR coordinate slices must be exactly the id-indexed coordinates
// permuted by the ids array, and the id-indexed XS/YS must echo the input.
func TestCSRCoordinateSlicesConsistent(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	ix, err := New(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := randPts(rng, 500, 12)
	ix.Rebuild(pts)
	xs, ys := ix.XS(), ix.YS()
	for i, p := range pts {
		if xs[i] != p.X || ys[i] != p.Y {
			t.Fatalf("id-indexed coords of %d differ from input", i)
		}
	}
	ids, cx, cy := ix.CSR()
	if len(ids) != len(pts) || len(cx) != len(pts) || len(cy) != len(pts) {
		t.Fatalf("CSR array lengths: ids %d cx %d cy %d, want %d", len(ids), len(cx), len(cy), len(pts))
	}
	for k, id := range ids {
		if cx[k] != xs[id] || cy[k] != ys[id] {
			t.Fatalf("CSR slot %d: coords (%v, %v) != point %d (%v, %v)",
				k, cx[k], cy[k], id, xs[id], ys[id])
		}
	}
}

// BlockSpans filtered at the index radius must find exactly the ids the
// brute-force reference finds, with the parallel coordinate slices
// attached, and CellSpanBounds must tile the CSR arrays.
func TestBlockSpansMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	ix, err := New(20, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	pts := randPts(rng, 600, 20)
	ix.Rebuild(pts)
	ref := NewBrute(ix.Radius())
	ref.Rebuild(pts)
	r2 := ix.Radius() * ix.Radius()
	var spans [3]Span
	for qi := 0; qi < 200; qi++ {
		q := geom.Pt(rng.Float64()*20, rng.Float64()*20)
		var got []int
		ns := ix.BlockSpans(q.X, q.Y, &spans)
		for si := 0; si < ns; si++ {
			s := spans[si]
			for k, id := range s.IDs {
				p := pts[id]
				if s.XS[k] != p.X || s.YS[k] != p.Y {
					t.Fatalf("query %v span %d slot %d: coords differ from point %d", q, si, k, id)
				}
				if p.Dist2(q) <= r2 {
					got = append(got, int(id))
				}
			}
		}
		want := ref.Neighbors(q, -1)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("query %v: spans %v, brute %v", q, got, want)
		}
	}
	total := 0
	for c := 0; c < ix.NumCells(); c++ {
		lo, hi := ix.CellSpanBounds(c)
		if lo != int32(total) {
			t.Fatalf("cell %d: span starts at %d, want %d", c, lo, total)
		}
		total += int(hi - lo)
	}
	if total != ix.Len() {
		t.Fatalf("cell spans cover %d ids, want %d", total, ix.Len())
	}
}
