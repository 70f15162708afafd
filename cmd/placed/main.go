// Command placed runs the placement job server: an HTTP/JSON API (see
// internal/jobs.Server for the endpoints) over a multi-tenant scheduler
// that multiplexes concurrent placements across a bounded worker pool with
// per-job worker budgets, priorities and fair-share preemption at stage
// boundaries.
//
// Every placement runs in a supervised child worker process (this same
// binary, re-executed in a hidden -worker mode), so a panic, runaway
// allocation or stalled kernel takes down one job's process — never the
// daemon or its other tenants. The supervisor watches heartbeats and exit
// codes: a crashed or stalled worker is restarted from the job's last
// CRC-verified checkpoint with bounded exponential backoff (-retries,
// -backoff), and a job that keeps killing its workers is quarantined as
// failed(poisoned). Overload is shed, not queued: beyond -max-queued jobs,
// under -min-free-mb of state-dir disk, or past the per-client rate limit
// (-rate/-burst), submissions get 503 + Retry-After, and /readyz (unlike
// the liveness-only /healthz) reports not-ready.
//
// Every job checkpoints its state under -state at each stage boundary, so a
// killed server process can be restarted over the same directory and its
// jobs migrate: they resume from their last checkpoint and still produce a
// final placement and canonical trace byte-identical to an uninterrupted
// CLI run (the repo's byte-identity contract; TestDaemonKillMigratesJob
// SIGKILLs this command mid-job and restarts it, and internal/jobs' tests
// cover preemption, pauses and killed workers).
//
//	placed -addr localhost:9090 -state /var/lib/placed [-capacity N]
//	       [-quantum K] [-persist-every K] [-retries N] [-backoff D]
//	       [-stall-timeout D] [-max-queued N] [-min-free-mb N]
//	       [-rate R] [-burst N] [-v]
//
// On SIGINT/SIGTERM the server stops accepting work, checkpoints every
// running job at its next stage boundary and exits; a second signal exits
// immediately (jobs then migrate from their last persisted checkpoint, as
// after a crash). Exit codes: 0 clean shutdown, 1 generic error, 2 usage
// error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/jobs"
)

func main() {
	// The hidden worker mode must dispatch before flag parsing: its flags
	// are the supervisor's private protocol, not part of the CLI surface.
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(jobs.RunWorker(os.Args[2:]))
	}
	os.Exit(run())
}

func run() (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "placed: internal error: %v\n", r)
			code = 1
		}
	}()
	addr := flag.String("addr", "localhost:9090", "listen address")
	state := flag.String("state", "", "state directory (required); jobs persist and migrate here")
	capacity := flag.Int("capacity", runtime.GOMAXPROCS(0), "worker-slot pool shared by running jobs")
	quantum := flag.Int("quantum", 4, "stage boundaries per scheduling lease (fair-share preemption)")
	persistEvery := flag.Int("persist-every", 1, "persist a migration checkpoint every K stage boundaries")
	retries := flag.Int("retries", 3, "worker crash/stall restarts per job before failed(poisoned) (negative: none)")
	backoff := flag.Duration("backoff", 250*time.Millisecond, "base restart backoff (doubles per restart, capped at 10s)")
	stallTimeout := flag.Duration("stall-timeout", 60*time.Second, "kill a worker silent for this long (negative: disable)")
	maxQueued := flag.Int("max-queued", 64, "queued-job cap; submissions beyond it shed with 503 (negative: unbounded)")
	minFreeMB := flag.Int64("min-free-mb", 64, "shed submissions when the state dir has less than this many MiB free (negative: disable)")
	rate := flag.Float64("rate", 5, "per-client submissions per second (negative: unlimited)")
	burst := flag.Int("burst", 10, "per-client submission burst")
	verbose := flag.Bool("v", false, "log job lifecycle events")
	flag.Parse()
	if *state == "" {
		fmt.Fprintln(os.Stderr, "placed: -state is required")
		return 2
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "placed: cannot locate own binary for workers: %v\n", err)
		return 1
	}
	cfg := jobs.Config{
		Dir:           *state,
		Capacity:      *capacity,
		Quantum:       *quantum,
		PersistEvery:  *persistEvery,
		WorkerCommand: []string{self, "-worker"},
		RetryBudget:   *retries,
		BackoffBase:   *backoff,
		StallTimeout:  *stallTimeout,
		MaxQueued:     *maxQueued,
		MinFreeBytes:  *minFreeMB << 20,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	m, err := jobs.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "placed: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "placed: %v\n", err)
		return 1
	}
	srv := &http.Server{
		Handler: jobs.NewServerWith(m, jobs.ServerConfig{RatePerSec: *rate, Burst: *burst}).Handler(),
		// Bounded I/O: a client that trickles headers or never reads its
		// response cannot pin a connection forever. Streaming handlers (SSE,
		// dashboards) extend their own write deadlines per event.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "placed listening on http://%s/ (state %s, capacity %d)\n",
		ln.Addr(), *state, cfg.Capacity)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "placed: %v\n", err)
			return 1
		}
		return 0
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "placed: %v: draining (checkpointing running jobs; signal again to force)\n", s)
	}

	// Stop accepting requests, then let every running job reach a stage
	// boundary and checkpoint. A second signal abandons the wait — the jobs
	// migrate from their last persisted checkpoint on the next start.
	go srv.Close()
	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	select {
	case <-done:
		fmt.Fprintln(os.Stderr, "placed: drained; state saved")
		return 0
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "placed: %v: forced exit\n", s)
		return 1
	}
}
