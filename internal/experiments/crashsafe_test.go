package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/mobility"
	"manhattanflood/internal/sim"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// testSpec is a small but real sweep: two radii, four trials each, sized
// so every trial completes well inside the step budget.
func testSpec() SweepSpec {
	return SweepSpec{Param: "r", Values: []float64{3, 5}, N: 400, R: 5, V: 0.3,
		Trials: 4, MaxSteps: 20000, Seed: 7, Source: "center"}
}

// TestWorkerCountDoesNotAffectResults pins the property resume relies on:
// trials are independently seeded and aggregated by trial index, so the
// worker fan-out changes wall-clock only.
func TestWorkerCountDoesNotAffectResults(t *testing.T) {
	spec := testSpec()
	base, err := RunSweep(Config{Workers: 1}, spec)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, workers := range []int{2, 4} {
		res, err := RunSweep(Config{Workers: workers}, spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(mustJSON(t, res), mustJSON(t, base)) {
			t.Fatalf("workers=%d result differs from workers=1", workers)
		}
	}
}

// TestKillAndResumeByteIdentical is the kill-and-resume property test: a
// sweep canceled after a prefix of its trials, checkpointed to disk,
// reopened and resumed — possibly under a different worker count — must
// produce results byte-identical to an uninterrupted run, and must not
// re-run any recorded trial.
func TestKillAndResumeByteIdentical(t *testing.T) {
	spec := testSpec()
	baseline, err := RunSweep(Config{Workers: 1}, spec)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	base := mustJSON(t, baseline)
	total := len(spec.Values) * spec.Trials

	cases := []struct {
		name                       string
		killAfter                  int
		killWorkers, resumeWorkers int
	}{
		{"kill-after-1_w1_resume-w4", 1, 1, 4},
		{"kill-after-3_w4_resume-w1", 3, 4, 1},
		{"kill-after-6_w2_resume-w2", 6, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			j, err := checkpoint.Open(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var live atomic.Int64
			cfg := Config{Ctx: ctx, Journal: j, Workers: tc.killWorkers,
				afterTrial: func() {
					if live.Add(1) == int64(tc.killAfter) {
						cancel()
					}
				}}
			// The interrupted run: cancellation is cooperative, so depending
			// on dispatch timing it may abandon trials (error) or slip in
			// before the cancel lands (no error). Both are legal; the
			// property under test is what resume produces afterwards.
			if _, runErr := RunSweep(cfg, spec); runErr != nil && !errors.Is(runErr, context.Canceled) {
				t.Fatalf("interrupted run failed with a non-cancellation error: %v", runErr)
			}
			if err := j.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}

			// Resume exactly as the CLI does: reopen the journal from disk.
			j2, err := checkpoint.Open(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			recorded := j2.Len()
			var resumedLive atomic.Int64
			cfg2 := Config{Journal: j2, Workers: tc.resumeWorkers,
				afterTrial: func() { resumedLive.Add(1) }}
			res, err := RunSweep(cfg2, spec)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !bytes.Equal(mustJSON(t, res), base) {
				t.Fatalf("resumed sweep differs from uninterrupted run\nresumed: %s\nbaseline: %s",
					mustJSON(t, res), base)
			}
			if got := int(resumedLive.Load()); got != total-recorded {
				t.Errorf("resume ran %d live trials, want %d (total %d - recorded %d)",
					got, total-recorded, total, recorded)
			}
		})
	}
}

// TestTrialPanicBecomesStructuredError exercises panic isolation without
// the faultinject build tag: a mobility factory that panics on its first
// construction poisons exactly one trial. The process survives, the error
// names experiment/point/trial/seed/shard, and the worker's pooled world
// is rebuilt so sibling trials complete.
func TestTrialPanicBecomesStructuredError(t *testing.T) {
	var calls atomic.Int32
	factory := func(cfg mobility.Config) (mobility.Model, error) {
		if calls.Add(1) == 1 {
			panic("injected factory failure")
		}
		return mobility.NewMRWP(cfg)
	}
	p := sim.Params{N: 300, L: 17.32, R: 4, V: 0.3, Seed: 42}
	_, err := floodOne(Config{Workers: 1}, "E99", 7, p, factory, 3, 20000, sourceCentral, false)
	if err == nil {
		t.Fatal("want a trial panic error, got nil")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Experiment != "E99" || pe.Point != 7 || pe.Trial != 0 || pe.Shard != 0 {
		t.Errorf("wrong coordinates: %+v", pe)
	}
	if pe.Seed != trialSeed(42, 0) {
		t.Errorf("seed = %#x, want %#x", pe.Seed, trialSeed(42, 0))
	}
	for _, part := range []string{"experiment=E99", "point=7", "trial=0", "seed=0x2a", "injected factory failure"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q missing %q", err.Error(), part)
		}
	}
	if len(pe.Stack) == 0 {
		t.Error("panic report carries no stack trace")
	}
	// First call panicked, second rebuilt the poisoned pool; the third
	// trial reused it. Exactly two constructions.
	if got := calls.Load(); got != 2 {
		t.Errorf("factory called %d times, want 2 (pool rebuilt once after the panic)", got)
	}
}

// TestPreCanceledRunAbandonsEverything: a context canceled before the run
// starts must dispatch no trials, record nothing, and surface the
// cancellation.
func TestPreCanceledRunAbandonsEverything(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := checkpoint.New()
	ran := false
	cfg := Config{Ctx: ctx, Journal: j, Workers: 2, afterTrial: func() { ran = true }}
	_, err := RunSweep(cfg, testSpec())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran {
		t.Error("a trial ran despite pre-canceled context")
	}
	if j.Len() != 0 {
		t.Errorf("journal recorded %d trials, want 0", j.Len())
	}
}

// TestRunAllCanceled: the suite driver surfaces cancellation between
// experiments.
func TestRunAllCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RunAll(Config{Ctx: ctx, Quick: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunSweepValidation rejects malformed specs up front.
func TestRunSweepValidation(t *testing.T) {
	good := testSpec()
	for name, mutate := range map[string]func(*SweepSpec){
		"bad param":  func(s *SweepSpec) { s.Param = "q" },
		"bad source": func(s *SweepSpec) { s.Source = "edge" },
		"no values":  func(s *SweepSpec) { s.Values = nil },
		"no trials":  func(s *SweepSpec) { s.Trials = 0 },
	} {
		spec := good
		mutate(&spec)
		if _, err := RunSweep(Config{}, spec); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}
