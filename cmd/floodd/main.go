// Command floodd serves parameter sweeps over HTTP. Clients POST
// declarative sweep specs to /v1/jobs and poll for status and TSV/JSON
// results; see internal/service for the API and the robustness contract.
//
// The daemon is crash-only: with -state set, every accepted job and every
// completed (point, trial) cell is fsynced before it is acknowledged, so
// a SIGKILLed server restarted against the same state directory resumes
// every accepted job and produces byte-identical results. -retain bounds
// how long finished jobs linger: past the window the garbage collector
// drops a terminal job together with its spec record and journal, so the
// job table stays bounded and a restart does not resurrect collected
// jobs (resubmitting the same spec then recomputes it). SIGTERM or
// SIGINT triggers a graceful drain instead: admission stops (healthz and
// submits turn 503), in-flight trials finish and are journaled, and the
// process exits 1 if unfinished jobs remain (they resume next start),
// 0 if the queue was empty.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"manhattanflood/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr           = flag.String("addr", "127.0.0.1:8080", "listen address")
		stateDir       = flag.String("state", "", "state directory for durable jobs and checkpoint journals (empty: in-memory only)")
		workers        = flag.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS)")
		maxQueued      = flag.Int("max-queued", 64, "admission bound: max queued+running jobs before submits get 429 (negative: unbounded)")
		defaultTimeout = flag.Duration("default-timeout", 0, "per-job deadline applied when the spec sets none (0 = none)")
		stallTimeout   = flag.Duration("stall-timeout", 5*time.Minute, "watchdog threshold for a single wedged trial (0 = off)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight trials on SIGTERM")
		retain         = flag.Duration("retain", 0, "how long finished jobs (and their journals) are kept before GC; also the result-cache window (0 = forever)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "floodd: ", log.LstdFlags|log.Lmsgprefix)

	sched, err := service.New(service.Config{
		Workers:        *workers,
		MaxQueuedJobs:  *maxQueued,
		DefaultTimeout: *defaultTimeout,
		StallTimeout:   *stallTimeout,
		StateDir:       *stateDir,
		Retain:         *retain,
		Logf:           func(format string, args ...any) { logger.Printf(format, args...) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "floodd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "floodd: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: service.NewServer(sched)}
	// Catch signals before announcing the address: a SIGTERM sent as soon
	// as "listening" appears must drain, not kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	logger.Printf("listening on %s (state=%q workers=%d)", ln.Addr(), *stateDir, *workers)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case got := <-sig:
		logger.Printf("received %s, draining", got)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "floodd: serve: %v\n", err)
		return 1
	}

	// Graceful drain: stop admitting and finish in-flight trials first
	// (so their cells reach the journals), then close the listener. The
	// HTTP server stays up during the drain so status polls keep working
	// and new submits get an honest 503.
	remaining := sched.Drain(*drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	if remaining > 0 {
		logger.Printf("drained with %d unfinished jobs; restart with the same -state to resume", remaining)
		return 1
	}
	logger.Printf("drained clean")
	return 0
}
