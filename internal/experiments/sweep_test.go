package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestSweepSpecValidate: a spec is rejected up front when any of its
// points could not run, not only when its shape is wrong, so no sweep
// starts whose every cell would fail.
func TestSweepSpecValidate(t *testing.T) {
	with := func(edit func(*SweepSpec)) SweepSpec {
		s := testSpec()
		edit(&s)
		return s
	}
	cases := []struct {
		name string
		spec SweepSpec
		want string // error fragment; "" means valid
	}{
		{"valid r sweep", testSpec(), ""},
		{"valid n sweep", with(func(s *SweepSpec) { s.Param, s.Values = "n", []float64{100, 400} }), ""},
		{"valid zero step budget", with(func(s *SweepSpec) { s.MaxSteps = 0 }), ""},
		{"negative r value", with(func(s *SweepSpec) { s.Values = []float64{3, -1} }), "point 1: sim: R must be positive"},
		{"zero r value", with(func(s *SweepSpec) { s.Values = []float64{0} }), "point 0: sim: R must be positive"},
		{"NaN r value", with(func(s *SweepSpec) { s.Values = []float64{math.NaN()} }), "sim: R must be positive"},
		{"infinite r value", with(func(s *SweepSpec) { s.Values = []float64{math.Inf(1)} }), "sim: R must be positive"},
		{"zero v value", with(func(s *SweepSpec) { s.Param, s.Values = "v", []float64{0.3, 0} }), "point 1: sim: V must be positive"},
		{"negative fixed v", with(func(s *SweepSpec) { s.V = -0.3 }), "point 0: sim: V must be positive"},
		{"zero fixed n", with(func(s *SweepSpec) { s.N = 0 }), "point 0: sim: N must be at least 1"},
		{"zero n value", with(func(s *SweepSpec) { s.Param, s.Values = "n", []float64{0} }), "sim: N must be at least 1"},
		{"negative n value", with(func(s *SweepSpec) { s.Param, s.Values = "n", []float64{100, -4} }), "point 1: sim: N must be at least 1"},
		{"fractional n value", with(func(s *SweepSpec) { s.Param, s.Values = "n", []float64{2.5} }), "n must be a whole number"},
		{"NaN n value", with(func(s *SweepSpec) { s.Param, s.Values = "n", []float64{math.NaN()} }), "n must be a whole number"},
		{"infinite n value", with(func(s *SweepSpec) { s.Param, s.Values = "n", []float64{math.Inf(1)} }), "n must be a whole number"},
		{"negative step budget", with(func(s *SweepSpec) { s.MaxSteps = -1 }), "max steps must be non-negative"},
		{"cells at the cap", with(func(s *SweepSpec) { s.Values, s.Trials = []float64{3, 5, 7, 9}, MaxCells/4 }), ""},
		{"cells over the cap", with(func(s *SweepSpec) { s.Values, s.Trials = []float64{3, 5, 7, 9}, MaxCells/4+1 }), "over the cap"},
		{"cells overflowing int", with(func(s *SweepSpec) { s.Values, s.Trials = []float64{3, 5, 7, 9}, math.MaxInt/2+1 }), "over the cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate: %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate: %v, want an error containing %q", err, tc.want)
			}
			// RunSweep shares the check, so it refuses before running a
			// single trial.
			res, err := RunSweep(Config{Workers: 1}, tc.spec)
			if err == nil || len(res.Points) != 0 {
				t.Fatalf("RunSweep: %d points, err %v; want a validation error and no points", len(res.Points), err)
			}
		})
	}
}
