package spatialindex

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"manhattanflood/internal/geom"
)

func TestNewErrors(t *testing.T) {
	tests := []struct {
		name         string
		side, radius float64
	}{
		{"zero-side", 0, 1},
		{"neg-side", -1, 1},
		{"zero-radius", 1, 0},
		{"nan-radius", 1, math.NaN()},
		{"inf-side", math.Inf(1), 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.side, tt.radius); err == nil {
				t.Error("want error")
			}
		})
	}
	ix, err := New(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Radius() != 3 {
		t.Errorf("Radius = %v", ix.Radius())
	}
}

func TestRadiusLargerThanSide(t *testing.T) {
	// A radius larger than the square degenerates to one bucket and must
	// still work.
	ix, err := New(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0.5, 0.5)}
	ix.Rebuild(pts)
	got := ix.Neighbors(geom.Pt(0.5, 0.5), -1, nil)
	if len(got) != 3 {
		t.Errorf("want all 3 points, got %v", got)
	}
}

func TestNeighborsSmall(t *testing.T) {
	ix, _ := New(10, 2)
	pts := []geom.Point{
		geom.Pt(1, 1),   // 0
		geom.Pt(2, 1),   // 1: dist 1 from 0
		geom.Pt(4, 1),   // 2: dist 3 from 0
		geom.Pt(1, 2.9), // 3: dist 1.9 from 0
		geom.Pt(9, 9),   // 4: far away
	}
	ix.Rebuild(pts)
	if ix.Len() != 5 {
		t.Errorf("Len = %d", ix.Len())
	}
	got := ix.Neighbors(pts[0], 0, nil)
	sort.Ints(got)
	want := []int{1, 3}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Neighbors = %v, want %v", got, want)
	}
	// Without exclusion the point itself is included.
	got = ix.Neighbors(pts[0], -1, nil)
	if len(got) != 3 {
		t.Errorf("want self included, got %v", got)
	}
	if n := ix.CountNeighbors(pts[0], 0); n != 2 {
		t.Errorf("CountNeighbors = %d, want 2", n)
	}
}

func TestBoundaryInclusive(t *testing.T) {
	// Distance exactly R counts as a neighbor (the paper's "at distance at
	// most R").
	ix, _ := New(10, 2)
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(3, 1)}
	ix.Rebuild(pts)
	if got := ix.Neighbors(pts[0], 0, nil); len(got) != 1 {
		t.Errorf("distance exactly R must be included, got %v", got)
	}
}

func TestRebuildResets(t *testing.T) {
	ix, _ := New(10, 1)
	ix.Rebuild([]geom.Point{geom.Pt(5, 5)})
	if got := ix.Neighbors(geom.Pt(5, 5), -1, nil); len(got) != 1 {
		t.Fatalf("first build: %v", got)
	}
	ix.Rebuild([]geom.Point{geom.Pt(1, 1)})
	if got := ix.Neighbors(geom.Pt(5, 5), -1, nil); len(got) != 0 {
		t.Errorf("stale point survived rebuild: %v", got)
	}
	if got := ix.Neighbors(geom.Pt(1, 1), -1, nil); len(got) != 1 {
		t.Errorf("new point missing: %v", got)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix, _ := New(10, 1)
	ix.Rebuild(nil)
	if got := ix.Neighbors(geom.Pt(5, 5), -1, nil); len(got) != 0 {
		t.Errorf("empty index returned %v", got)
	}
	if ix.Len() != 0 {
		t.Errorf("Len = %d", ix.Len())
	}
}

func TestNeighborsAppendsToDst(t *testing.T) {
	ix, _ := New(10, 2)
	ix.Rebuild([]geom.Point{geom.Pt(1, 1), geom.Pt(1.5, 1)})
	dst := make([]int, 0, 8)
	dst = append(dst, 99)
	dst = ix.Neighbors(geom.Pt(1, 1), -1, dst)
	if dst[0] != 99 || len(dst) != 3 {
		t.Errorf("append semantics broken: %v", dst)
	}
}

// Property: grid index agrees exactly with the brute-force reference on
// random point sets, query points, and radii.
func TestIndexMatchesBruteProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 42))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		side := 1 + 9*r.Float64()
		radius := side * (0.02 + 0.3*r.Float64())
		n := 1 + r.IntN(300)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*side, r.Float64()*side)
		}
		ix, err := New(side, radius)
		if err != nil {
			return false
		}
		ix.Rebuild(pts)
		brute := NewBrute(radius)
		brute.Rebuild(pts)
		for trial := 0; trial < 20; trial++ {
			q := geom.Pt(r.Float64()*side, r.Float64()*side)
			exclude := -1
			if r.IntN(2) == 0 {
				exclude = r.IntN(n)
			}
			got := ix.Neighbors(q, exclude, nil)
			want := brute.Neighbors(q, exclude)
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// A few extra deterministic rounds beyond quick's generator.
	for trial := 0; trial < 20; trial++ {
		if !f(rng.Uint64()) {
			t.Fatalf("index/brute mismatch at trial %d", trial)
		}
	}
}

func BenchmarkIndexRebuild10k(b *testing.B) {
	const side = 100.0
	rng := rand.New(rand.NewPCG(1, 1))
	pts := make([]geom.Point, 10000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	ix, _ := New(side, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Rebuild(pts)
	}
}

func BenchmarkIndexQuery10k(b *testing.B) {
	const side = 100.0
	rng := rand.New(rand.NewPCG(1, 1))
	pts := make([]geom.Point, 10000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	ix, _ := New(side, 2)
	ix.Rebuild(pts)
	var dst []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.Neighbors(pts[i%len(pts)], i%len(pts), dst[:0])
	}
}
