package tracev2

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden trace fixture")

// goldenPath is the committed trace the current writer must reproduce
// byte for byte. It pins the on-disk format: a round-trip test cannot
// tell a format drift from a correct rewrite of the codec, this fixture
// can. A deliberate format change re-records it with `go test
// ./internal/tracev2 -run Golden -update`.
var goldenPath = filepath.Join("testdata", "golden.mft")

const (
	goldenN        = 20
	goldenFrames   = 24
	goldenInformed = 14 // frames 0..13 carry an informed block, the rest do not
	goldenKeyEvery = 8
)

// splitmix64 is a fixed, dependency-free generator: the fixture's
// columns must not change when a library RNG does.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// goldenDelta returns a zig-zag delta value whose uvarint is exactly k
// bytes (1 <= k <= 10), drawn from s.
func goldenDelta(s *uint64, k int) uint64 {
	lo := uint64(0)
	if k > 1 {
		lo = 1 << (7 * (k - 1))
	}
	if k >= 10 {
		return lo | splitmix64(s)>>1
	}
	return lo + splitmix64(s)%(uint64(1)<<(7*k)-lo)
}

// goldenRun builds the fixture's deterministic columns. Every agent
// starts at a distinct bit pattern (NaN, ±Inf, ±0 and a subnormal among
// them); in every later frame agent i's x delta is a varint of exactly
// 1+(i+frame)%10 bytes and its y delta one of 10-(i+frame)%10 bytes,
// except that every fifth agent (a paused one) keeps a zero delta on
// both axes. Frames 0..goldenInformed-1 carry a growing informed set,
// the rest are position-only, so with a keyframe every goldenKeyEvery
// frames the trace holds both frame kinds with and without informed
// blocks, and a keyframe forced by the informed-presence transition.
func goldenRun() synthRun {
	seed := uint64(2024)
	x := make([]uint64, goldenN)
	y := make([]uint64, goldenN)
	special := []uint64{
		math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)), 0, 1 << 63, 1, // +0, -0, min subnormal
	}
	for i := range x {
		x[i] = splitmix64(&seed)
		y[i] = math.Float64bits(float64(i) * 1.25)
		if i < len(special) {
			x[i] = special[i]
		}
	}
	informed := make([]bool, goldenN)
	var run synthRun
	for f := 0; f < goldenFrames; f++ {
		if f > 0 {
			for i := range x {
				if i%5 == 4 {
					continue
				}
				k := 1 + (i+f)%10
				x[i] += uint64(unzigzag(goldenDelta(&seed, k)))
				y[i] += uint64(unzigzag(goldenDelta(&seed, 11-k)))
			}
		}
		run.steps = append(run.steps, f)
		xs := make([]float64, goldenN)
		ys := make([]float64, goldenN)
		for i := range xs {
			xs[i] = math.Float64frombits(x[i])
			ys[i] = math.Float64frombits(y[i])
		}
		run.x = append(run.x, xs)
		run.y = append(run.y, ys)
		if f >= goldenInformed {
			run.informed = append(run.informed, nil)
			run.newly = append(run.newly, nil)
			continue
		}
		var newly []int32
		for _, id := range []int{(7 * f) % goldenN, (3*f + 11) % goldenN} {
			if !informed[id] {
				informed[id] = true
				newly = append(newly, int32(id))
			}
		}
		run.informed = append(run.informed, append([]bool(nil), informed...))
		run.newly = append(run.newly, newly)
	}
	return run
}

// TestGoldenTrace re-records the fixture's run and requires the bytes to
// equal testdata/golden.mft, then replays the fixture and requires the
// run's exact columns back.
func TestGoldenTrace(t *testing.T) {
	run := goldenRun()
	got := writeRun(t, run, goldenN, goldenKeyEvery)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("trace bytes drifted from %s at offset %d (got %d bytes, fixture %d)",
			goldenPath, i, len(got), len(want))
	}
	checkReplay(t, want, run, goldenN)
}
