// Command experiments runs the paper-reproduction experiment suite
// (E01-E14, see DESIGN.md) and prints a measured-vs-paper table for each.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-trials N] [-only E03[,E05,...]]
//	            [-workers N] [-checkpoint exp.ckpt] [-resume] [-timeout 30m]
//
// Full-size runs take minutes; -quick completes in seconds at reduced
// statistical power.
//
// The suite is crash-safe. With -checkpoint, every trial is appended to
// the journal as it finishes, so even a SIGKILL keeps the completed
// trials. SIGINT/SIGTERM — or an expired -timeout — drains gracefully:
// in-flight trials finish, the journal is synced and closed, and the
// process exits nonzero with a hint to rerun with -resume — which replays
// the recorded trials and reproduces the interrupted run's numbers
// byte-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced problem sizes (seconds instead of minutes)")
	seed := flag.Uint64("seed", 1, "master random seed")
	trials := flag.Int("trials", 0, "seeds per data point (0 = experiment default)")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	workers := flag.Int("workers", 0, "trial worker goroutines (0 = GOMAXPROCS)")
	ckptPath := flag.String("checkpoint", "", "checkpoint journal path (enables crash-safe resume)")
	resume := flag.Bool("resume", false, "replay completed trials from the -checkpoint journal")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole suite (0 = none); on expiry the run drains like an interrupt")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%s  %-40s %s\n", r.ID, r.Paper, r.Description)
		}
		return
	}
	if *resume && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -checkpoint")
		os.Exit(2)
	}

	var journal *checkpoint.Journal
	if *ckptPath != "" {
		if !*resume {
			if err := os.Remove(*ckptPath); err != nil && !os.IsNotExist(err) {
				fmt.Fprintln(os.Stderr, "experiments: clearing old checkpoint:", err)
				os.Exit(1)
			}
		}
		var err error
		journal, err = checkpoint.OpenAppend(*ckptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if *resume && journal.Len() > 0 {
			fmt.Fprintf(os.Stderr, "experiments: resuming: %d trials already recorded in %s\n",
				journal.Len(), *ckptPath)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{
		Ctx:     ctx,
		Journal: journal,
		Workers: *workers,
		Seed:    *seed,
		Trials:  *trials,
		Quick:   *quick,
		Out:     os.Stdout,
	}

	err := run(cfg, *only)

	if journal != nil {
		if cerr := journal.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "experiments: closing checkpoint:", cerr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "experiments: -timeout %s exceeded; partial results above are valid\n", *timeout)
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if journal != nil {
				fmt.Fprintf(os.Stderr, "experiments: completed trials are checkpointed in %s; rerun with -resume to continue\n",
					*ckptPath)
			} else {
				fmt.Fprintln(os.Stderr, "experiments: rerun with -checkpoint to make interruptions resumable")
			}
		}
		os.Exit(1)
	}
}

func run(cfg experiments.Config, only string) error {
	if only == "" {
		return experiments.RunAll(cfg)
	}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		r, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		fmt.Printf("\n=== %s — %s ===\n%s\n\n", r.ID, r.Paper, r.Description)
		if err := r.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}
