// Command placer runs one placement mode on one named synthetic design and
// prints the resulting metrics.
//
// Observability flags:
//
//	-trace out.jsonl   write the full telemetry event stream (spans,
//	                   snapshots, logs, metrics) as JSONL; summarize it
//	                   with `go run ./cmd/tracereport out.jsonl`. With
//	                   `-trace -` the stream goes to stdout and the
//	                   summary moves to stderr, so the output pipes
//	                   cleanly into `tracereport -`
//	-metrics           print the per-stage timing table and the metrics
//	                   registry after the run
//	-pprof addr        serve net/http/pprof at addr (e.g. localhost:6060)
//	                   for live CPU/heap profiling of long runs; pipeline
//	                   stages are labeled (pprof -tagfocus=stage=...)
//	-serve addr        serve the live HTML dashboard at addr (e.g.
//	                   localhost:8080): convergence charts, congestion
//	                   heatmap, stage timings and metrics, streamed over
//	                   SSE while the run progresses. Composes with -trace;
//	                   the written trace is byte-identical with or without
//	                   -serve. After the run completes the server keeps
//	                   serving until interrupted
//
// Checkpoint/resume flags:
//
//	-checkpoint f      write the run state to f: at the -checkpoint-after
//	                   point, or at the last consistent pipeline position
//	                   when the run is cancelled (-timeout, Ctrl-C → the
//	                   context path)
//	-checkpoint-after p  stop once pipeline point p completes ("setup",
//	                   "wirelength", "routability", "legalize", "detailed"
//	                   or "route_iter:K"; with -levels ≥ 2, coarse-level
//	                   points carry an "L<k>/" prefix, e.g. "L1/wirelength");
//	                   exits 0 with the state saved
//	-resume            continue the run saved in -checkpoint instead of
//	                   starting fresh (same -design; the checkpoint is
//	                   authoritative for the run-defining options)
//	-timeout d         cancel the run after duration d (e.g. 30s)
//	-out f             write the final placement to f in the designio
//	                   text format (only on a completed run)
//
// Scaling flags:
//
//	-levels n          multilevel clustered placement (DESIGN.md §12): the
//	                   design is coarsened n−1 times, placed coarsest-first
//	                   and interpolated down. 0/1 = flat. Results stay
//	                   byte-identical for any -workers value
//	-cluster-max-size  cap on base cells per cluster (0 = auto, <0 = none)
//	-wliters n         cap phase-1 wirelength iterations (0 = default 400);
//	                   with -riters, bounds the per-level work on the
//	                   *_big designs (see README "Scaling to 1M cells")
//
// Robustness flags:
//
//	-guard p           numeric guardrail policy: off (default), warn,
//	                   recover or fail — see DESIGN.md §9
//	-guard-retries n   divergence-recovery retry budget for -guard recover
//
// Exit codes: 0 success (or scheduled checkpoint stop), 1 generic error,
// 2 usage error, 3 cancelled/timed out, 4 corrupted checkpoint,
// 5 degenerate design (including nothing to coarsen at -levels ≥ 2),
// 6 numeric guard failure (violation under -guard fail, or recovery budget
// exhausted under -guard recover), 8 legalization found no room for a cell
// (the same run fails the same way every time).
// Internal errors never surface as raw panics; they print one line and
// exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/designio"
	"repro/internal/guard"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	// A panic anywhere below becomes a one-line diagnostic: the CLI's
	// contract is distinct exit codes and readable errors, never a raw
	// stack trace.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "placer: internal error: %v\n", r)
			code = 1
		}
	}()
	design := flag.String("design", "fft_1", "design name from the synthetic catalog")
	mode := flag.String("mode", "ours", "placer mode: xplace | xplace-route | ours")
	verbose := flag.Bool("v", false, "log progress")
	grid := flag.Int("grid", 0, "grid hint (0 = auto)")
	mci := flag.Bool("mci", true, "momentum cell inflation (ours mode)")
	dc := flag.Bool("dc", true, "differentiable congestion / net moving (ours mode)")
	dpa := flag.Bool("dpa", true, "dynamic pin accessibility (ours mode)")
	riters := flag.Int("riters", 0, "max routability iterations (0 = default)")
	wliters := flag.Int("wliters", 0, "max phase-1 wirelength iterations (0 = default)")
	levels := flag.Int("levels", 0, "multilevel clustered placement levels (0/1 = flat; ≥2 coarsens the design and places coarsest-first)")
	clusterMax := flag.Int("cluster-max-size", 0, "max base cells per cluster across the hierarchy (0 = auto 4^(levels-1), negative = no cap)")
	workers := flag.Int("workers", 0, "worker goroutines for the parallel kernels (0 = GOMAXPROCS, 1 = serial; results are identical for any value)")
	tracePath := flag.String("trace", "", "write a JSONL telemetry trace to this file (- for stdout)")
	metrics := flag.Bool("metrics", false, "print stage timings and the metrics registry")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof at this address")
	ckptPath := flag.String("checkpoint", "", "checkpoint file path (enables checkpoint on cancellation)")
	ckptAfter := flag.String("checkpoint-after", "", "stop after this pipeline point and write the checkpoint")
	resume := flag.Bool("resume", false, "resume the run saved in -checkpoint")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
	outPath := flag.String("out", "", "write the final placement to this file (designio format)")
	guardFlag := flag.String("guard", "", "numeric guardrail policy: off | warn | recover | fail")
	guardRetries := flag.Int("guard-retries", 0, "divergence-recovery retry budget for -guard recover (0 = default)")
	serveAddr := flag.String("serve", "", "serve the live HTML dashboard at this address (e.g. localhost:8080)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *resume && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint")
		return 2
	}
	guardPolicy, err := guard.ParsePolicy(*guardFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "placer: %v\n", err)
		return 2
	}

	d, err := synth.Generate(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	m, err := core.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opt := core.Options{Mode: m, GridHint: *grid, MaxRouteIters: *riters, MaxWLIters: *wliters, Workers: *workers,
		Levels: *levels, ClusterMaxSize: *clusterMax,
		Tech:           core.Techniques{MCI: *mci, DC: *dc, DPA: *dpa},
		CheckpointPath: *ckptPath, CheckpointAfter: *ckptAfter,
		Guard: guard.Config{Policy: guardPolicy, MaxRetries: *guardRetries}}
	if *verbose {
		opt.Log = os.Stderr
	}

	var traceFile *os.File
	var sink io.Writer // canonical JSONL destination; stays nil without -trace
	out := os.Stdout   // human-readable summary sink
	switch {
	case *tracePath == "-":
		// Trace owns stdout; keep the JSONL stream clean by moving the
		// summary to stderr so `placer -trace - | tracereport -` works.
		sink = os.Stdout
		out = os.Stderr
	case *tracePath != "":
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		sink = traceFile
	}

	// The dashboard hub wraps the canonical sink: every event line passes
	// through byte-for-byte before being broadcast, so the written trace is
	// identical with or without -serve.
	var hub *telemetry.Hub
	if *serveAddr != "" {
		hub = telemetry.NewHub(sink)
		sink = hub
		ln, lerr := net.Listen("tcp", *serveAddr)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "dashboard: %v\n", lerr)
			return 1
		}
		srv := dashboard.NewServer(hub, fmt.Sprintf("%s — mode %s", *design, *mode))
		go func() {
			if serr := http.Serve(ln, srv.Handler()); serr != nil && !errors.Is(serr, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "dashboard server: %v\n", serr)
			}
		}()
		fmt.Fprintf(os.Stderr, "dashboard listening on http://%s/\n", ln.Addr())
	}

	var obs *telemetry.Observer
	if sink != nil || *metrics {
		obs = telemetry.NewObserver(sink) // nil sink: aggregate in memory only
	}
	opt.Observer = obs

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var res *core.Result
	if *resume {
		res, err = core.ResumeFromFile(ctx, d, *ckptPath, opt)
	} else {
		res, err = core.PlaceContext(ctx, d, opt)
	}
	closeTrace := func() {
		if traceFile != nil {
			if cerr := traceFile.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", cerr)
			}
		}
		if hub != nil {
			hub.Close() // live SSE subscribers receive eof
		}
	}
	if errors.Is(err, core.ErrCheckpointed) {
		// Scheduled stop: the trace stream stays un-flushed (no metric dump)
		// so the resumed run's events concatenate into one continuous trace.
		closeTrace()
		fmt.Fprintf(os.Stderr, "checkpointed at %q: state written to %s\n",
			*ckptAfter, *ckptPath)
		return 0
	}
	if code := core.ExitCode(err); code != 0 {
		closeTrace()
		switch code {
		case core.ExitCancelled:
			fmt.Fprintf(os.Stderr, "run cancelled (%v) after %.2fs", err, res.PlaceTime.Seconds())
			if *ckptPath != "" {
				fmt.Fprintf(os.Stderr, "; state written to %s — rerun with -resume to continue", *ckptPath)
			}
			fmt.Fprintln(os.Stderr)
		case core.ExitCorrupt:
			fmt.Fprintf(os.Stderr, "placer: corrupted checkpoint: %v\n", err)
		case core.ExitDegenerate:
			fmt.Fprintf(os.Stderr, "placer: %v\n", err)
		case core.ExitGuard:
			fmt.Fprintf(os.Stderr, "placer: numeric guard failure: %v\n", err)
		default:
			fmt.Fprintln(os.Stderr, err)
		}
		return code
	}
	if obs != nil {
		if hub != nil {
			// Streaming loss accounting. Volatile: the count depends on
			// subscriber timing, so it never enters the canonical trace.
			obs.VolatileGauge("telemetry.dropped_events").Set(float64(hub.Dropped()))
		}
		if err := obs.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		}
	}
	closeTrace()

	if *outPath != "" {
		f, ferr := os.Create(*outPath)
		if ferr == nil {
			ferr = designio.Write(f, d)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "out: %v\n", ferr)
			return 1
		}
	}

	st := d.ComputeStats()
	fmt.Fprintf(out, "design=%s cells=%d nets=%d util=%.2f\n", d.Name, st.NumMovable, st.NumNets, st.Utilization)
	fmt.Fprintf(out, "mode=%s DRWL=%.0f vias=%d DRVs=%d HPWL=%.0f PT=%.2fs RT=%.2fs wlIters=%d routeIters=%d\n",
		res.Mode, res.Metrics.DRWL, res.Metrics.DRVias, res.Metrics.DRVs, res.HPWLFinal,
		res.PlaceTime.Seconds(), res.RouteTime.Seconds(), res.WLIters, res.RouteIters)
	fmt.Fprintf(out, "components: overflow=%.0f pinDens=%.0f pinAccess=%.0f maxUtil=%.2f\n",
		res.Metrics.OverflowViol, res.Metrics.PinDensViol, res.Metrics.PinAccessViol, res.Metrics.MaxUtil)

	if *metrics && obs != nil {
		fmt.Fprintf(out, "\nStage timings\n")
		for _, s := range res.StageTimings {
			for i := 0; i < s.Depth; i++ {
				fmt.Fprint(out, "  ")
			}
			fmt.Fprintf(out, "%-30s count=%-5d total=%v\n", s.Name, s.Count, s.Total)
		}
		fmt.Fprintf(out, "\nMetrics\n")
		for _, m := range obs.Metrics.Snapshot() {
			kind := m.Kind
			if m.Volatile {
				kind += "*"
			}
			switch m.Kind {
			case "histogram":
				fmt.Fprintf(out, "%-34s %-9s n=%d mean=%g min=%g max=%g\n",
					m.Name, kind, m.Count, m.Value, m.Min, m.Max)
			default:
				fmt.Fprintf(out, "%-34s %-9s %g\n", m.Name, kind, m.Value)
			}
		}
		fmt.Fprintf(out, "(* volatile: wall-clock/environment metric, excluded from canonical traces)\n")
	}

	if *serveAddr != "" {
		// Subscribe before announcing, so a signal sent on the announcement
		// exits cleanly instead of killing the process.
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		fmt.Fprintf(os.Stderr, "run complete; dashboard still serving — interrupt to exit\n")
		<-ch
	}
	return 0
}
