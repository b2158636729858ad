// Command sweep runs flooding-time parameter sweeps and emits TSV rows —
// the raw series behind the paper's Theorem 3 shape, ready for gnuplot or
// spreadsheet import.
//
// Usage:
//
//	sweep -param r -values 4,5,6,8,12 [-n 4000] [-v 0.3] [-r 5]
//	      [-trials 5] [-seed 1] [-max-steps 100000] [-source center]
//	      [-workers 0] [-checkpoint sweep.ckpt] [-resume] [-timeout 10m]
//
// -param selects which axis varies (r, v, or n); the corresponding fixed
// flag is ignored. Output columns: value, mean T, ci95, CZ time, suburb
// lag, L/R, second-phase term, completed/trials.
//
// The sweep is crash-safe. With -checkpoint, every trial is appended to
// the journal as it finishes, so even a SIGKILL keeps the completed
// trials. SIGINT/SIGTERM — or an expired -timeout — drains gracefully:
// in-flight trials finish, the journal is synced and closed, completed
// points are printed, and the process exits nonzero with a hint to rerun
// with -resume. A resumed
// sweep replays recorded trials from the journal and produces
// byte-identical TSV to an uninterrupted run. -resume refuses (exit 2) a
// journal recorded under different sweep flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/experiments"
)

func main() {
	param := flag.String("param", "r", "swept parameter: r, v, or n")
	values := flag.String("values", "", "comma-separated values for the swept parameter")
	n := flag.Int("n", 4000, "agents (fixed unless -param n)")
	r := flag.Float64("r", 5, "radius (fixed unless -param r)")
	v := flag.Float64("v", 0.3, "speed (fixed unless -param v)")
	trials := flag.Int("trials", 5, "seeds per point")
	seed := flag.Uint64("seed", 1, "base seed")
	maxSteps := flag.Int("max-steps", 100000, "step budget per run")
	source := flag.String("source", "center", "source placement: center, corner, random")
	workers := flag.Int("workers", 0, "trial worker goroutines (0 = GOMAXPROCS)")
	ckptPath := flag.String("checkpoint", "", "checkpoint journal path (enables crash-safe resume)")
	resume := flag.Bool("resume", false, "replay completed trials from the -checkpoint journal")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole sweep (0 = none); on expiry the sweep drains like an interrupt")
	flag.Parse()

	if *values == "" {
		fmt.Fprintln(os.Stderr, "sweep: -values is required")
		os.Exit(2)
	}
	var vals []float64
	for _, tok := range strings.Split(*values, ",") {
		val, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: bad value %q: %v\n", tok, err)
			os.Exit(2)
		}
		vals = append(vals, val)
	}
	if *resume && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "sweep: -resume requires -checkpoint")
		os.Exit(2)
	}

	spec := experiments.SweepSpec{
		Param: *param, Values: vals,
		N: *n, R: *r, V: *v,
		Trials: *trials, MaxSteps: *maxSteps,
		Seed: *seed, Source: *source,
	}

	var journal *checkpoint.Journal
	if *ckptPath != "" {
		if !*resume {
			// A fresh (non-resume) run must not replay a stale journal left
			// behind by an earlier sweep at the same path.
			if err := os.Remove(*ckptPath); err != nil && !os.IsNotExist(err) {
				fmt.Fprintln(os.Stderr, "sweep: clearing old checkpoint:", err)
				os.Exit(1)
			}
		}
		var err error
		journal, err = checkpoint.OpenAppend(*ckptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		if *resume {
			// A journal recorded for different flags would silently poison
			// the resumed sweep; refuse it with the mismatch spelled out.
			if err := spec.CheckJournal(journal); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %s was recorded for a different sweep: %v\n", *ckptPath, err)
				fmt.Fprintln(os.Stderr, "sweep: rerun with the original flags, or delete the journal to start over")
				os.Exit(2)
			}
			if journal.Len() > 0 {
				fmt.Fprintf(os.Stderr, "sweep: resuming: %d trials already recorded in %s\n",
					journal.Len(), *ckptPath)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{Ctx: ctx, Journal: journal, Workers: *workers}
	res, runErr := experiments.RunSweep(cfg, spec)

	// Every finished trial is already appended to the journal; Close
	// syncs it and reports a write that failed along the way.
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep: closing checkpoint:", err)
		}
	}

	fmt.Println("value\tmeanT\tci95\tczTime\tsuburbLag\tL_over_R\tsecondTerm\tcompleted")
	failed := 0
	for _, p := range res.Points {
		if p.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "sweep: point value=%g failed: %v\n", p.Value, p.Err)
			continue
		}
		fmt.Printf("%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%d/%d\n",
			p.Value, p.MeanT, p.CI95, p.CZTime, p.SuburbLag, p.LOverR,
			p.SecondTerm, p.Completed, p.Trials)
	}

	switch {
	case runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)):
		reason := "interrupted"
		if errors.Is(runErr, context.DeadlineExceeded) {
			reason = fmt.Sprintf("-timeout %s exceeded", *timeout)
		}
		fmt.Fprintf(os.Stderr, "sweep: %s: %d of %d points completed\n",
			reason, len(res.Points), len(vals))
		if journal != nil {
			fmt.Fprintf(os.Stderr, "sweep: completed trials are checkpointed in %s; rerun with -resume to continue\n",
				*ckptPath)
		} else {
			fmt.Fprintln(os.Stderr, "sweep: rerun with -checkpoint to make interruptions resumable")
		}
		os.Exit(1)
	case runErr != nil:
		fmt.Fprintln(os.Stderr, "sweep:", runErr)
		os.Exit(1)
	case failed > 0:
		fmt.Fprintf(os.Stderr, "sweep: %d of %d points failed\n", failed, len(vals))
		os.Exit(1)
	}
}
