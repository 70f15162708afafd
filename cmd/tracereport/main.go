// Command tracereport summarizes a JSONL telemetry trace produced by
// `placer -trace out.jsonl` (or any telemetry.Observer sink): a per-stage
// timing table from the span tree, ASCII convergence sparklines for every
// snapshot series (density overflow, overflow score, λ₁, λ₂, γ, inflation
// ratios, …) and the final metrics dump (histograms with p50/p95/p99).
// Traces from multilevel runs (placer -levels N) carry "L<k>/"-prefixed
// stage names; the timing table is then split into one sub-table per
// hierarchy level, coarsest first, in the order the levels executed.
// Malformed trace lines are reported to stderr with file:line context and
// skipped — one truncated write never hides the rest of the report.
//
// With -canon the trace is instead canonicalized (telemetry.StripTimings:
// durations, timing events and volatile metrics removed) and written to
// stdout verbatim — two runs of the same deterministic placement produce
// byte-identical -canon output (the tests compare the same canonical form
// through telemetry.StripTimings).
//
// With -diff two traces are compared (report.Compare): per-stage timing
// deltas, per-metric final-value deltas and iteration-count drift. The
// exit status is 1 exactly when DETERMINISTIC drift exists (non-volatile
// metrics, iteration counts, stage counts) — two identical-seed runs diff
// clean regardless of wall-clock differences.
//
// Usage:
//
//	go run ./cmd/tracereport out.jsonl
//	go run ./cmd/tracereport -canon out.jsonl
//	go run ./cmd/tracereport -diff a.jsonl b.jsonl
//	go run ./cmd/placer -design fft_1 -trace - | go run ./cmd/tracereport -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/telemetry"
	"repro/internal/telemetry/report"
)

func main() {
	canon := flag.Bool("canon", false, "emit the canonical (timing-stripped) trace instead of a report")
	diff := flag.Bool("diff", false, "compare two traces; exit 1 on deterministic drift")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracereport [-canon] <trace.jsonl | ->")
		fmt.Fprintln(os.Stderr, "       tracereport -diff <a.jsonl> <b.jsonl>")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		a := readTraceArg(flag.Arg(0))
		b := readTraceArg(flag.Arg(1))
		d := report.Compare(a, b)
		d.WriteReport(os.Stdout)
		if len(d.DeterministicDrift()) > 0 {
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	in, closeIn := openArg(name)
	defer closeIn()
	if *canon {
		raw, err := io.ReadAll(in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out, err := telemetry.StripTimings(raw)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return
	}
	tr, err := report.ReadTrace(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	warnMalformed(name, tr)
	tr.WriteReport(os.Stdout)
}

// openArg opens a trace argument ("-" = stdin).
func openArg(name string) (io.Reader, func()) {
	if name == "-" {
		return os.Stdin, func() {}
	}
	f, err := os.Open(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return f, func() { f.Close() }
}

// readTraceArg fully parses one trace argument, reporting malformed lines.
func readTraceArg(name string) *report.Trace {
	in, closeIn := openArg(name)
	defer closeIn()
	tr, err := report.ReadTrace(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	warnMalformed(name, tr)
	return tr
}

// warnMalformed prints each skipped line as name:line to stderr.
func warnMalformed(name string, tr *report.Trace) {
	if name == "-" {
		name = "<stdin>"
	}
	for _, m := range tr.Malformed {
		fmt.Fprintf(os.Stderr, "%s:%d: skipping malformed trace line: %v\n", name, m.Line, m.Err)
	}
}
