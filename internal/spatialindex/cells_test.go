package spatialindex

import (
	"math/rand/v2"
	"testing"
)

// The precomputed-cells ingestion paths (ClassifyInto feeding
// RebuildXYCells / UpdateCells) must leave the index bit-identical to
// the classify-inside paths (RebuildXY / Update) on the same
// coordinates, across randomized mobility-like steps in both the delta
// and the fallback displacement regimes.
func TestCellsPathsMatchPlain(t *testing.T) {
	for _, maxStep := range []float64{0.05, 1.7, 40.0} {
		rng := rand.New(rand.NewPCG(21, uint64(maxStep*1000)))
		const side, radius = 50.0, 4.0
		const n = 700
		xs := make([]float64, n)
		ys := make([]float64, n)
		cells := make([]int32, n)
		for i := range xs {
			xs[i] = rng.Float64() * side
			ys[i] = rng.Float64() * side
		}
		mk := func() *Index {
			ix, err := New(side, radius)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
		ref, rebC, upd, updC := mk(), mk(), mk(), mk()
		upd.RebuildXY(xs, ys)
		updC.RebuildXY(xs, ys)
		for step := 0; step < 40; step++ {
			perturb(rng, xs, ys, side, maxStep)
			ref.RebuildXY(xs, ys)
			ref.ClassifyInto(cells, xs, ys)
			rebC.RebuildXYCells(xs, ys, cells)
			requireIdentical(t, step, rebC, ref)
			upd.Update(xs, ys, nil)
			requireIdentical(t, step, upd, ref)
			updC.UpdateCells(xs, ys, cells, nil)
			requireIdentical(t, step, updC, ref)
		}
	}
}

// UpdateCells with a dirty bitmap must match Update with the same bitmap
// bit for bit.
func TestUpdateCellsDirtyFlags(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 99))
	const side, radius = 30.0, 3.0
	const n = 400
	xs := make([]float64, n)
	ys := make([]float64, n)
	cells := make([]int32, n)
	dirty := make([]bool, n)
	for i := range xs {
		xs[i] = rng.Float64() * side
		ys[i] = rng.Float64() * side
	}
	mk := func() *Index {
		ix, err := New(side, radius)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	upd, updC, ref := mk(), mk(), mk()
	upd.RebuildXY(xs, ys)
	updC.RebuildXY(xs, ys)
	for step := 0; step < 40; step++ {
		for i := range dirty {
			dirty[i] = rng.Float64() < 0.7
			if dirty[i] {
				xs[i] = clamp01(xs[i]+(rng.Float64()*2-1)*1.2, side)
				ys[i] = clamp01(ys[i]+(rng.Float64()*2-1)*1.2, side)
			}
		}
		upd.Update(xs, ys, dirty)
		upd.ClassifyInto(cells, xs, ys)
		updC.UpdateCells(xs, ys, cells, dirty)
		ref.RebuildXY(xs, ys)
		requireIdentical(t, step, upd, ref)
		requireIdentical(t, step, updC, ref)
	}
}

// ClassifyInto must agree with the stored per-point classification after
// any rebuild — one mapping, every path.
func TestClassifyIntoMatchesCell(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 7))
	const side, radius = 40.0, 2.5
	const n = 300
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * side
		ys[i] = rng.Float64() * side
	}
	ix, err := New(side, radius)
	if err != nil {
		t.Fatal(err)
	}
	ix.RebuildXY(xs, ys)
	cells := make([]int32, n)
	ix.ClassifyInto(cells, xs, ys)
	for i, c := range cells {
		if int(c) != ix.Cell(i) {
			t.Fatalf("point %d: ClassifyInto %d != Cell %d", i, c, ix.Cell(i))
		}
	}
}
