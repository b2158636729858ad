package kernel_test

import (
	"reflect"
	"testing"

	"manhattanflood/internal/core"
	"manhattanflood/internal/experiments"
	"manhattanflood/internal/geom"
	"manhattanflood/internal/kernel"
	"manhattanflood/internal/sim"
)

// newFlood builds a deterministic world+flood pair for the downgrade
// tests.
func newFlood(t *testing.T, seed uint64) *core.Flooding {
	t.Helper()
	p := sim.Params{N: 900, L: 30, R: 3, V: 0.3, Seed: seed}
	w, err := sim.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFlooding(w, w.NearestAgent(geom.Pt(p.L/2, p.L/2)))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDowngradeMidSimulationBitIdentical pins the feature-detection
// downgrade contract: forcing the portable reference kernel at runtime —
// in the middle of a simulation, as a GODEBUG=mfkernel=generic start
// would from step zero — changes nothing observable. Two identically
// seeded floods run in lockstep; one is downgraded halfway through, and
// every per-step informed count and the final informed set must match
// bit for bit. Under -tags purego (or on non-AVX2 hardware) both runs
// take the reference path and the test degenerates to a determinism
// check, which is intended.
func TestDowngradeMidSimulationBitIdentical(t *testing.T) {
	defer kernel.SetGeneric(false)
	const steps = 60
	ref := newFlood(t, 42)
	kernel.SetGeneric(false)
	var refSeries []int
	for s := 0; s < steps; s++ {
		ref.Step()
		refSeries = append(refSeries, ref.InformedCount())
	}

	mix := newFlood(t, 42)
	var mixSeries []int
	for s := 0; s < steps; s++ {
		if s == steps/2 {
			kernel.SetGeneric(true) // downgrade mid-flight
		}
		mix.Step()
		mixSeries = append(mixSeries, mix.InformedCount())
	}

	if !reflect.DeepEqual(mixSeries, refSeries) {
		t.Fatalf("informed-count series diverged across mid-run downgrade:\n got %v\nwant %v", mixSeries, refSeries)
	}
	if got, want := mix.Informed(), ref.Informed(); !reflect.DeepEqual(got, want) {
		t.Fatal("informed set diverged across mid-run downgrade")
	}
}

// TestE03QuickSweepBitIdenticalAcrossPaths runs the full E03 quick sweep
// — the production Monte-Carlo fan-out, pooled worlds and all — once on
// the active kernel path and once on the forced reference path, and
// requires the entire result structure (every mean, CI, fit coefficient
// and monotonicity verdict) to be identical. This is the end-to-end form
// of the kernel's bit-identity contract.
func TestE03QuickSweepBitIdenticalAcrossPaths(t *testing.T) {
	defer kernel.SetGeneric(false)
	cfg := experiments.Config{Seed: 7, Quick: true}

	kernel.SetGeneric(false)
	fast, err := experiments.E03FloodVsR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kernel.SetGeneric(true)
	slow, err := experiments.E03FloodVsR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("E03 quick sweep differs between kernel paths (%s vs generic):\n fast: %+v\n slow: %+v",
			kernel.Path(), fast, slow)
	}
}
