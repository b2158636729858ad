package spatialindex

import (
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/geom"
)

func randPts(rng *rand.Rand, n int, side float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return pts
}

// The CSR arrays must partition the ids: every id exactly once, ascending
// within each bucket, and each bucket's span consistent with Cell().
func TestCSRLayoutInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	ix, err := New(10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		pts := randPts(rng, 200+trial*100, 10)
		ix.Rebuild(pts)
		ids, _, _ := ix.CSR()
		seen := make([]bool, len(pts))
		total := 0
		for c := 0; c < ix.NumCells(); c++ {
			lo, hi := ix.CellSpanBounds(c)
			total += int(hi - lo)
			cx, cy := c%ix.Cols(), c/ix.Cols()
			if rlo, rhi := ix.RowSpanBounds(cy, cx, cx); rlo != lo || rhi != hi {
				t.Fatalf("cell %d: RowSpanBounds [%d, %d) != CellSpanBounds [%d, %d)", c, rlo, rhi, lo, hi)
			}
			row := ids[lo:hi]
			for k, id := range row {
				if seen[id] {
					t.Fatalf("id %d appears twice", id)
				}
				seen[id] = true
				if ix.Cell(int(id)) != c {
					t.Fatalf("id %d in span of cell %d but Cell() = %d", id, c, ix.Cell(int(id)))
				}
				if k > 0 && row[k-1] >= id {
					t.Fatalf("cell %d ids not ascending: %v", c, row)
				}
			}
		}
		if total != len(pts) {
			t.Fatalf("cells hold %d ids, want %d", total, len(pts))
		}
	}
}

// Rebuild copies the point slice: mutating or reusing the caller's slice
// afterwards must not corrupt queries. This is the contract sim.World
// relies on when it reuses one position slice across steps.
func TestRebuildCopiesPoints(t *testing.T) {
	ix, err := New(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(1.5, 1), geom.Pt(9, 9)}
	ix.Rebuild(pts)
	before := ix.Neighbors(geom.Pt(1, 1), -1, nil)

	// Scribble over the caller's slice (simulating in-place reuse).
	for i := range pts {
		pts[i] = geom.Pt(5, 5)
	}
	after := ix.Neighbors(geom.Pt(1, 1), -1, nil)
	if len(before) != 2 || len(after) != 2 {
		t.Fatalf("neighbors before mutation %v, after %v; want 2 ids both times", before, after)
	}
	if x, y := ix.XS()[2], ix.YS()[2]; x != 9 || y != 9 {
		t.Errorf("point 2 = (%v, %v), want the snapshotted (9, 9)", x, y)
	}
	if got := ix.Neighbors(geom.Pt(5, 5), -1, nil); len(got) != 0 {
		t.Errorf("query at mutated location found %v, want none", got)
	}
}

// Rebuild must be allocation-free in the steady state (same n).
func TestRebuildSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	ix, err := New(50, 4)
	if err != nil {
		t.Fatal(err)
	}
	pts := randPts(rng, 2000, 50)
	ix.Rebuild(pts) // warm capacities
	avg := testing.AllocsPerRun(20, func() {
		ix.Rebuild(pts)
	})
	if avg > 0 {
		t.Errorf("Rebuild allocates %v times per call in steady state, want 0", avg)
	}
}

// A shrink then regrow of the point count must stay consistent.
func TestRebuildResize(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	ix, err := New(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{100, 10, 0, 250, 31} {
		pts := randPts(rng, n, 10)
		ix.Rebuild(pts)
		if ix.Len() != n {
			t.Fatalf("Len = %d, want %d", ix.Len(), n)
		}
		total := 0
		for c := 0; c < ix.NumCells(); c++ {
			lo, hi := ix.CellSpanBounds(c)
			total += int(hi - lo)
		}
		if total != n {
			t.Fatalf("n=%d: cell counts sum to %d", n, total)
		}
	}
}
