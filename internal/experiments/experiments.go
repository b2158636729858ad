// Package experiments turns every figure and theorem of the paper into a
// runnable, seeded measurement with a paper-predicted column next to the
// measured one. The experiment index (E01-E18) is documented in DESIGN.md
// and the recorded outcomes in EXPERIMENTS.md; the root bench_test.go
// exposes one benchmark per experiment.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/render"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all randomness. Identical Config => identical output.
	Seed uint64
	// Trials is the number of independent seeds averaged per data point
	// (0 means the experiment's default).
	Trials int
	// Quick shrinks problem sizes for CI/bench runs; results remain
	// directionally meaningful but noisier.
	Quick bool
	// Out receives rendered tables; nil discards them.
	Out io.Writer
	// Ctx cancels a run cooperatively: every experiment checks it at
	// per-trial (or per-point) granularity — never inside the
	// zero-allocation step loops — so cancellation lets in-flight trials
	// finish, abandons pending ones, and leaves recorded results intact.
	// nil means the run can never be canceled.
	Ctx context.Context
	// Journal, when set, records every completed flooding trial — on a
	// journal opened by checkpoint.OpenAppend, its line is appended as
	// the trial finishes — and replays already-recorded trials instead of
	// re-running them (checkpoint/resume). Trials are independently seeded, so a resumed
	// run aggregates to results byte-identical to an uninterrupted one.
	Journal *checkpoint.Journal
	// Workers caps the Monte-Carlo trial fan-out (0 = GOMAXPROCS). The
	// worker count never affects results — only wall-clock time — so a
	// checkpointed sweep may be resumed under a different setting.
	Workers int

	// afterTrial, when non-nil, runs on the worker goroutine after each
	// live (non-replayed) trial completes. Test seam for the
	// kill-and-resume property tests; deliberately unexported.
	afterTrial func()
	// afterStep, when non-nil, runs on the worker goroutine after every
	// world step of a trial's radius lanes. Test seam for the lane
	// coupling oracle; deliberately unexported.
	afterStep func(*lanePool)
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// canceled reports the configured context's cancellation error, nil while
// the run may proceed. Experiment loops consult it between trials/points.
func (c Config) canceled() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

func (c Config) trials(def, quick int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return quick
	}
	return def
}

// pick returns full or quick depending on cfg.Quick.
func pick[T any](c Config, full, quick T) T {
	if c.Quick {
		return quick
	}
	return full
}

// Runner executes one experiment and renders its tables to cfg.Out.
type Runner struct {
	// ID is the experiment identifier, e.g. "E01".
	ID string
	// Paper names the paper artifact reproduced, e.g. "Fig. 1 (spatial)".
	Paper string
	// Description summarizes what is measured.
	Description string
	// Run executes the experiment.
	Run func(cfg Config) error
}

// registry is populated by each experiment file's init-free registration
// in All.
func All() []Runner {
	rs := []Runner{
		{"E01", "Fig. 1 (gray gradient) / Thm 1", "stationary spatial density: empirical vs closed form", runE01},
		{"E02", "Fig. 1 (blue cross) / Thm 2, Eqs 4-5", "destination law: quadrant + cross-arm masses vs closed form", runE02},
		{"E03", "Thm 3 (R-dependence)", "flooding time vs R; fit T = a L/R + b S/v", runE03},
		{"E04", "Thm 3 (v-dependence)", "flooding time vs v; fit T = a + b/v", runE04},
		{"E05", "Thm 10 / Cor 12", "Central Zone informed by 18 L/R; empty-Suburb regime", runE05},
		{"E06", "Lemma 15", "Suburb corner extent vs S across n", runE06},
		{"E07", "Thm 18", "small-R lower bound: corner-pocket construction", runE07},
		{"E08", "Sec. 1 / [13]", "connectivity: whole square vs Central Zone across R", runE08},
		{"E09", "Lemma 13", "agent turns per window vs 4 log n / log(L/(v tau))", runE09},
		{"E10", "Lemma 9", "cell-subset expansion slack over adversarial families", runE10},
		{"E11", "headline claim", "Suburb completion lag vs S/v over an (R, v) grid", runE11},
		{"E12", "Lemma 7", "min agents per CZ cell core over time vs eta log n", runE12},
		{"E13", "ablation", "perfect simulation vs cold start: density + flooding bias", runE13},
		{"E14", "baseline contrast", "flooding time across mobility models", runE14},
		{"E15", "Thm 10 mechanism", "infection-tree depth ~ L/R; courier edges in the Suburb", runE15},
		{"E16", "Lemma 16", "first meeting of Suburb agents with CZ-origin agents vs 590 S/v", runE16},
		{"E17", "extension (ours)", "way-point pauses: flooding time vs paused fraction in the courier regime", runE17},
		{"E18", "Sec. 3 technical hurdle", "snapshot dependence: cell-occupancy decorrelation time vs l/v", runE18},
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
	return rs
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll executes every experiment in order, stopping at the first error
// (including cooperative cancellation via cfg.Ctx).
func RunAll(cfg Config) error {
	for _, r := range All() {
		if err := cfg.canceled(); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		if _, err := fmt.Fprintf(cfg.out(), "\n=== %s — %s ===\n%s\n\n", r.ID, r.Paper, r.Description); err != nil {
			return err
		}
		if err := r.Run(cfg); err != nil {
			return fmt.Errorf("experiments: %s: %w", r.ID, err)
		}
	}
	return nil
}

// emit writes a table to the config output.
func emit(cfg Config, t *render.Table) error {
	return t.Render(cfg.out())
}
