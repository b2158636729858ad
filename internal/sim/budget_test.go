package sim

import (
	"math"
	"reflect"
	"testing"
)

// NewWorld must allocate no heap object per agent: the per-agent RNG
// streams live by value in one slab and the populations keep flat
// columns, so the allocation count is the same at any N. Each count is
// the minimum over several AllocsPerRun passes: allocations the runtime
// makes on its own land in some passes only (a single pass read one
// object more at one N in every isolated run under GOGC=20), while an
// allocation NewWorld makes shows in every pass.
func TestNewWorldAllocsIndependentOfN(t *testing.T) {
	for _, f := range []struct {
		name    string
		factory ModelFactory
	}{
		{"mrwp", nil},
		{"mrwp-paused", PausedMRWPFactory(10)},
	} {
		allocs := func(n int) float64 {
			best := math.Inf(1)
			for range 5 {
				best = min(best, testing.AllocsPerRun(3, func() {
					if _, err := NewWorld(Params{N: n, L: 60, R: 4, V: 0.3, Seed: 1}, f.factory); err != nil {
						t.Fatal(err)
					}
				}))
			}
			return best
		}
		small, large := allocs(1000), allocs(16000)
		if small != large {
			t.Errorf("%s: NewWorld allocates %v objects at N=1000 but %v at N=16000", f.name, small, large)
		}
	}
}

// byteCounter sums the backing arrays of every slice reachable from the
// values it walks: capacity times element size, each array once. Slices
// that alias an array already counted (the population's view of the
// world's positions, the index's borrowed coordinates) add nothing, so
// walking the layers in order attributes every array to the first layer
// that reaches it. Only slice storage is counted; fixed-size structs and
// scalars are O(1) per world.
type byteCounter struct{ seen map[uintptr]bool }

func (c *byteCounter) walk(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || c.seen[v.Pointer()] {
			return 0
		}
		c.seen[v.Pointer()] = true
		return c.walk(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return c.walk(v.Elem())
	case reflect.Struct:
		sum := 0
		for i := 0; i < v.NumField(); i++ {
			sum += c.walk(v.Field(i))
		}
		return sum
	case reflect.Slice:
		if v.Cap() == 0 || c.seen[v.Pointer()] {
			return 0
		}
		c.seen[v.Pointer()] = true
		sum := v.Cap() * int(v.Type().Elem().Size())
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				sum += c.walk(v.Index(i))
			}
		}
		return sum
	}
	return 0
}

// layerBytes is a world's slice storage per layer, in bytes.
type layerBytes struct {
	rng, population, positions, tiling, index int
}

func measureLayers(w *World) layerBytes {
	c := &byteCounter{seen: map[uintptr]bool{}}
	wv := reflect.ValueOf(w).Elem()
	pop := reflect.ValueOf(w.pop).Elem()
	var b layerBytes
	for _, f := range []string{"x", "y", "cells", "dirty"} {
		b.positions += c.walk(wv.FieldByName(f))
	}
	b.rng = c.walk(wv.FieldByName("pcgs")) + c.walk(pop.FieldByName("rngs"))
	b.population = c.walk(pop)
	ix := reflect.ValueOf(w.index).Elem()
	for i := 0; i < ix.NumField(); i++ {
		if ix.Type().Field(i).Name != "tiling" {
			b.index += c.walk(ix.Field(i))
		}
	}
	b.tiling = c.walk(ix.FieldByName("tiling"))
	return b
}

// TestAgentByteBudget pins the per-agent state of the two L-path models:
// population columns plus RNG streams at most 140 B/agent, and at most
// 4 B/agent of tiling scratch on a tiled world (the tiling holds its
// geometry and the compare scan's mover lists, nothing per agent). The
// count sums slice capacities, so it is exact rather than GC-dependent.
// Run with -v for the per-layer table at the flood_sparse_100k geometry.
func TestAgentByteBudget(t *testing.T) {
	const budget, tilingBudget = 140.0, 4.0
	for _, f := range []struct {
		name    string
		factory ModelFactory
	}{
		{"mrwp", nil},
		{"mrwp-paused", PausedMRWPFactory(20)},
	} {
		for _, p := range []Params{
			{N: 10000, L: 100, R: 4, V: 0.3, Seed: 1},
			{N: 100000, L: 2 * math.Sqrt(100000), R: 4, V: 0.1, Seed: 1, Tiles: 4, Workers: 2},
		} {
			if testing.Short() && p.N > 10000 {
				continue
			}
			w, err := NewWorld(p, f.factory)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 3; s++ {
				w.Step() // let the index's update scratch reach its working size
			}
			b := measureLayers(w)
			n := float64(p.N)
			t.Logf("%s N=%d tiles=%d B/agent: population %.1f, RNG %.1f, positions+cells %.1f, index %.1f, tiling scratch %.1f",
				f.name, p.N, p.Tiles, float64(b.population)/n, float64(b.rng)/n,
				float64(b.positions)/n, float64(b.index)/n, float64(b.tiling)/n)
			if got := float64(b.population+b.rng) / n; got > budget {
				t.Errorf("%s N=%d: population+RNG = %.1f B/agent, budget %v", f.name, p.N, got, budget)
			}
			if got := float64(b.tiling) / n; got > tilingBudget {
				t.Errorf("%s N=%d tiles=%d: tiling scratch = %.1f B/agent, budget %v", f.name, p.N, p.Tiles, got, tilingBudget)
			}
		}
	}
}
