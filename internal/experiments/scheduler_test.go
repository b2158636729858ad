package experiments

import (
	"reflect"
	"strings"
	"testing"

	"manhattanflood/internal/checkpoint"
)

// TestCellRunnerMatchesRunSweep is the seam's core contract: running the
// sweep one cell at a time — deliberately out of order, interleaved with
// cells of a different spec to force pool parameter switches — and
// aggregating from the recorded outcomes must be byte-identical to the
// in-process RunSweep.
func TestCellRunnerMatchesRunSweep(t *testing.T) {
	spec := testSpec()
	other := testSpec()
	other.N = 300
	other.Seed = 99

	want, err := RunSweep(Config{Workers: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}

	j := checkpoint.New()
	runner := NewCellRunner(0)
	// Reverse order, with a foreign cell injected between every cell of
	// the sweep under test: the pooled world must rebuild on parameter
	// switches without contaminating results.
	for point := spec.Points() - 1; point >= 0; point-- {
		for trial := spec.Trials - 1; trial >= 0; trial-- {
			if _, err := runner.Run(other, 0, 0); err != nil {
				t.Fatalf("foreign cell: %v", err)
			}
			res, err := runner.Run(spec, point, trial)
			if err != nil {
				t.Fatalf("cell (%d,%d): %v", point, trial, err)
			}
			if err := j.Append(spec.Unit(point, trial), res); err != nil {
				t.Fatal(err)
			}
		}
	}

	got, err := AggregateSweep(spec, func(point, trial int) (checkpoint.Result, bool) {
		return j.Lookup(spec.Unit(point, trial))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cell-at-a-time sweep differs from RunSweep\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestCellRunnerKeepsPoolAcrossSeeds: two sweeps that differ only in
// Seed share the pooled world. Alternating their cells at one point must
// give each cell the result a fresh runner gives it, and allocate no more
// per cell than running one sweep's cells back to back (a rebuild per
// seed switch costs a new world and flooding process).
func TestCellRunnerKeepsPoolAcrossSeeds(t *testing.T) {
	a := testSpec()
	b := testSpec()
	b.Seed = 99
	specs := [2]SweepSpec{a, b}

	runner := NewCellRunner(0)
	for trial := 0; trial < a.Trials; trial++ {
		for _, spec := range specs {
			got, err := runner.Run(spec, 1, trial)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", spec.Seed, trial, err)
			}
			want, err := NewCellRunner(0).Run(spec, 1, trial)
			if err != nil {
				t.Fatalf("fresh runner, seed %d trial %d: %v", spec.Seed, trial, err)
			}
			if got != want {
				t.Fatalf("seed %d trial %d: pooled %+v, fresh %+v", spec.Seed, trial, got, want)
			}
		}
	}

	cellAllocs := func(specs []SweepSpec) float64 {
		r := NewCellRunner(0)
		k := 0
		return testing.AllocsPerRun(20, func() {
			if _, err := r.Run(specs[k%len(specs)], 1, 0); err != nil {
				t.Fatal(err)
			}
			k++
		})
	}
	one := cellAllocs([]SweepSpec{a})
	alternating := cellAllocs(specs[:])
	if alternating != one {
		t.Fatalf("alternating two seeds: %v allocs per cell, one sweep: %v", alternating, one)
	}
}

// TestCellUnitsMatchRunSweepJournal: the units the spec hands an external
// scheduler must be exactly the units RunSweep's own trial runner records
// — shared journals are the resume story.
func TestCellUnitsMatchRunSweepJournal(t *testing.T) {
	spec := testSpec()
	j := checkpoint.New()
	if _, err := RunSweep(Config{Workers: 2, Journal: j}, spec); err != nil {
		t.Fatal(err)
	}
	if j.Len() != spec.Cells() {
		t.Fatalf("journal has %d units, want %d", j.Len(), spec.Cells())
	}
	for point := 0; point < spec.Points(); point++ {
		for trial := 0; trial < spec.Trials; trial++ {
			if _, ok := j.Lookup(spec.Unit(point, trial)); !ok {
				t.Errorf("Unit(%d,%d) not found in RunSweep's journal", point, trial)
			}
		}
	}
}

// TestCellRunnerRecoversPanicAndHeals: a poisoned cell yields a
// *PanicError, and the very next cell on the same runner succeeds on a
// rebuilt pool.
func TestCellRunnerRecoversPanicAndHeals(t *testing.T) {
	spec := testSpec()
	runner := NewCellRunner(3)
	bad := spec
	bad.Values = []float64{3}
	bad.Trials = 1
	// A cell out of range is an ordinary error, not a panic.
	if _, err := runner.Run(bad, 5, 0); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range cell error = %v", err)
	}
	if _, err := runner.Run(spec, 0, 0); err != nil {
		t.Fatalf("runner unusable after bad cell: %v", err)
	}
}

func TestAggregateSweepMissingCell(t *testing.T) {
	spec := testSpec()
	_, err := AggregateSweep(spec, func(point, trial int) (checkpoint.Result, bool) {
		return checkpoint.Result{}, false
	})
	if err == nil || !strings.Contains(err.Error(), "no recorded outcome") {
		t.Fatalf("missing cell error = %v", err)
	}
}

// TestCheckJournal: a journal written by this spec passes; any flag drift
// (population, trial count, seed, experiment axis) is a diagnosable
// mismatch.
func TestCheckJournal(t *testing.T) {
	spec := testSpec()
	j := checkpoint.New()
	if _, err := RunSweep(Config{Workers: 1, Journal: j}, spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.CheckJournal(j); err != nil {
		t.Fatalf("own journal rejected: %v", err)
	}
	if err := spec.CheckJournal(checkpoint.New()); err != nil {
		t.Fatalf("empty journal rejected: %v", err)
	}

	for name, mutate := range map[string]func(*SweepSpec){
		"different n":     func(s *SweepSpec) { s.N = s.N * 2 },
		"different seed":  func(s *SweepSpec) { s.Seed++ },
		"different axis":  func(s *SweepSpec) { s.Param = "v" },
		"fewer trials":    func(s *SweepSpec) { s.Trials = 1 },
		"fewer values":    func(s *SweepSpec) { s.Values = s.Values[:1] },
		"different steps": func(s *SweepSpec) { s.MaxSteps /= 2 },
		"other source":    func(s *SweepSpec) { s.Source = "corner" },
	} {
		mutated := spec
		mutate(&mutated)
		if err := mutated.CheckJournal(j); err == nil {
			t.Errorf("%s: journal accepted despite flag mismatch", name)
		}
	}
}
