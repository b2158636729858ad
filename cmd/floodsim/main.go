// Command floodsim runs one flooding experiment over a MANET and prints
// the flooding time together with every bound the paper predicts for the
// chosen parameters.
//
// Usage:
//
//	floodsim [-n 4000] [-l 0] [-r 5] [-v 0.3] [-seed 1]
//	         [-model mrwp|rwp|walk|direction] [-source center|corner|random]
//	         [-max-steps 100000] [-chaining] [-series] [-timeout 1m]
//	         [-tiles 0] [-workers 0] [-trace run.mft]
//
// -l 0 (default) uses the paper's standard L = sqrt(n). -tiles K runs
// the tiled world (K x K tiles whose flood sweep skips every tile with
// no frontier; bit-identical results, worthwhile for sparse floods from
// ~100k agents — see the 1M-agent quickstart in README.md). -trace
// records the run to a columnar trace file replayable with cmd/traceql
// (see README.md, "Recording and replaying runs").
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"

	manhattan "manhattanflood"
	"manhattanflood/internal/render"
)

func main() {
	n := flag.Int("n", 4000, "number of agents")
	l := flag.Float64("l", 0, "square side (0 = sqrt(n))")
	r := flag.Float64("r", 5, "transmission radius")
	v := flag.Float64("v", 0.3, "agent speed per step")
	seed := flag.Uint64("seed", 1, "random seed")
	model := flag.String("model", "mrwp", "mobility model: mrwp, rwp, walk, direction")
	source := flag.String("source", "center", "source placement: center, corner, random")
	maxSteps := flag.Int("max-steps", 100000, "step budget")
	chaining := flag.Bool("chaining", false, "within-step epidemic relaying (ablation)")
	series := flag.Bool("series", false, "print the informed-count time series")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none); on expiry the run stops like an interrupt")
	tiles := flag.Int("tiles", 0, "tiles per side for the tiled world (0 = flat; results are bit-identical)")
	workers := flag.Int("workers", 0, "worker goroutines for stepping and tiled passes (0 = sequential)")
	tracePath := flag.String("trace", "", "record the run to this columnar trace file (analyze with traceql)")
	flag.Parse()

	side := *l
	if side == 0 {
		side = math.Sqrt(float64(*n))
	}
	cfg := manhattan.Config{N: *n, L: side, R: *r, V: *v, Seed: *seed,
		Tiles: *tiles, Workers: *workers}
	switch *model {
	case "mrwp":
		cfg.Model = manhattan.MRWP
	case "rwp":
		cfg.Model = manhattan.RWP
	case "walk":
		cfg.Model = manhattan.RandomWalk
	case "direction":
		cfg.Model = manhattan.RandomDirection
	default:
		fmt.Fprintf(os.Stderr, "floodsim: unknown model %q\n", *model)
		os.Exit(2)
	}
	var src manhattan.Source
	switch *source {
	case "center":
		src = manhattan.SourceCenter
	case "corner":
		src = manhattan.SourceCorner
	case "random":
		src = manhattan.SourceRandom
	default:
		fmt.Fprintf(os.Stderr, "floodsim: unknown source %q\n", *source)
		os.Exit(2)
	}

	sim, err := manhattan.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "floodsim:", err)
		os.Exit(1)
	}
	zones := sim.Zones()
	fmt.Printf("world: n=%d L=%.4g R=%.4g v=%.4g model=%s seed=%d\n",
		*n, side, *r, *v, cfg.Model, *seed)
	fmt.Printf("partition: %dx%d cells (side %.4g), %d central / %d suburb, S=%.4g\n",
		zones.CellsPerSide, zones.CellsPerSide, zones.CellSide,
		zones.CentralCells, zones.SuburbCells, zones.SuburbDiameter)

	if b, err := manhattan.PaperBounds(cfg); err == nil {
		fmt.Printf("paper bounds: 18L/R=%.4g  T3-upper=%.4g  suburb-empty=%v  speed-ok=%v\n",
			b.CentralZoneTime, b.UpperBound, b.SuburbEmpty, b.SpeedOK)
		if b.LowerBoundApplies {
			fmt.Printf("Theorem 18 regime: lower bound Omega(L/(v n^(1/3))) = %.4g\n", b.LowerBound)
		}
	}

	// finishTrace detaches the recorder and flushes the trace file; called
	// on every post-run path (os.Exit skips defers), so even an
	// interrupted run leaves a committed, replayable prefix on disk.
	finishTrace := func() {}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "floodsim:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		rec, err := manhattan.NewRecorder(bw, sim, manhattan.RecordOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "floodsim:", err)
			os.Exit(1)
		}
		sim.Attach(rec)
		finishTrace = func() {
			sim.Detach()
			err := bw.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "floodsim: flushing trace:", err)
				os.Exit(1)
			}
			fmt.Printf("trace: %d frames -> %s\n", rec.Frames(), *tracePath)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := sim.Flood(manhattan.FloodOptions{
		Ctx:          ctx,
		Source:       src,
		MaxSteps:     *maxSteps,
		TrackZones:   true,
		Chaining:     *chaining,
		RecordSeries: *series,
	})
	finishTrace()
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "floodsim: -timeout %s exceeded at step %d: %d/%d informed\n",
				*timeout, res.Time, res.Informed, *n)
		} else if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "floodsim: interrupted at step %d: %d/%d informed\n",
				res.Time, res.Informed, *n)
		} else {
			fmt.Fprintln(os.Stderr, "floodsim:", err)
		}
		os.Exit(1)
	}
	if !res.Completed {
		fmt.Printf("NOT COMPLETED after %d steps: %d/%d informed\n", res.Time, res.Informed, *n)
		os.Exit(1)
	}
	fmt.Printf("flooding time: %d steps (source agent %d)\n", res.Time, res.Source)
	if res.CZTime >= 0 {
		fmt.Printf("central zone informed at: %d; suburb lag: %d\n", res.CZTime, res.SuburbLag)
	}
	if *series {
		floats := make([]float64, len(res.Series))
		for i, c := range res.Series {
			floats[i] = float64(c)
		}
		fmt.Printf("informed-count curve: %s\n", render.Sparkline(floats, 60))
		fmt.Println("t\tinformed")
		for t, c := range res.Series {
			fmt.Printf("%d\t%d\n", t, c)
		}
	}
}
