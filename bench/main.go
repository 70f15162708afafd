// Command bench is the repository's performance benchmark. It runs four
// workloads (routability, wirelength, multilevel, service), prints every
// end-to-end metric and every per-layer metric named in BENCHMARK.json with
// its unit, checks that the program's outputs are correct, and writes a
// results JSON. Run it from the repository root through bench/run.sh, which
// builds it and the placed daemon first:
//
//	bash bench/run.sh                                  # all four workloads
//	bash bench/run.sh --workload service --seed 3 --seconds 28 --trace 0
//	bash bench/run.sh -compare base.json new.json     # apply BENCHMARK.json's bounds
//	bash bench/run.sh -compare base1.json base2.json new.json
//
// Each workload runs in a child process (the command re-executes itself with
// -child), so each workload's peak memory is its own. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. See bench/README.md for the workloads, the metrics and
// how to read the traced breakdown.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     int // 0: end-to-end, 1: per-layer, -1: both
	out       string
	placed    string
	baseline  string
	benchmark string
	commit    string
	mini      bool
	child     string
	// baselineLeg makes the child run only the workload's seed-0 quality
	// check, in a process of its own so that the large reference designs
	// do not count toward the measured child's peak memory.
	baselineLeg bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	fs.StringVar(&cfg.workload, "workload", "", "run one workload (default: all four)")
	fs.Int64Var(&cfg.seed, "seed", 0, "input seed; 0 uses the catalog designs verbatim")
	fs.Float64Var(&seconds, "seconds", 28, "measuring time per workload run")
	fs.IntVar(&cfg.trace, "trace", -1, "0: end-to-end metrics, 1: per-layer metrics (default: both)")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "results.json"), "results JSON to write")
	fs.StringVar(&cfg.placed, "placed", filepath.Join(".bench_build", "bin", "placed"), "placed daemon binary")
	fs.StringVar(&cfg.baseline, "baseline", "BENCH_baseline.json", "quality reference for the routability panel and the seed-0 baseline legs (empty: skip)")
	fs.StringVar(&cfg.benchmark, "benchmark", "BENCHMARK.json", "benchmark definition: metric names, units and bounds")
	fs.StringVar(&cfg.commit, "commit", "unknown", "git revision measured, recorded in the results")
	fs.BoolVar(&cfg.mini, "mini", false, "miniature workloads (tiny designs, short loops), for tests")
	fs.StringVar(&cfg.child, "child", "", "internal: run one workload in this process")
	fs.BoolVar(&cfg.baselineLeg, "baseline-leg", false, "internal: with -child, run only the seed-0 quality check")
	compare := fs.Bool("compare", false, "compare results files: -compare base.json [base2.json ...] new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	if cfg.mini {
		// The miniature designs have no entries in the repository's
		// baseline; check them only against a reference given explicitly.
		explicit := false
		fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "baseline" })
		if !explicit {
			cfg.baseline = ""
		}
	}
	if *compare {
		if fs.NArg() < 2 {
			fmt.Fprintln(stderr, "bench: -compare needs a base and a new results file")
			return 2
		}
		return runCompare(cfg.benchmark, fs.Args(), stdout, stderr)
	}
	if cfg.trace < -1 || cfg.trace > 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if cfg.child != "" {
		return runChild(cfg, stdout, stderr)
	}
	return runParent(cfg, stdout, stderr)
}

// workloadResult is one workload's outcome: the correctness tally and the
// metrics. A child process prints it as JSON; the parent merges the
// end-to-end and per-layer children of a workload into one.
type workloadResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Passes    map[string]int    `json:"passes"`
	Metrics   map[string]metric `json:"metrics"`
	// JobLatencies are the raw submit → eof latencies of the service loop.
	JobLatencies []float64 `json:"job_latencies_s,omitempty"`
	// TreeMaxRSSKiB is the largest resident set among the child's own waited-
	// for children (the daemon and its workers), which the parent cannot see.
	TreeMaxRSSKiB int64 `json:"tree_max_rss_kib,omitempty"`
}

func newWorkloadResult() *workloadResult {
	return &workloadResult{Passes: map[string]int{}, Metrics: map[string]metric{}}
}

// maxFailures bounds the failure messages kept; the count is exact.
const maxFailures = 20

// check books one attempted operation, failed unless ok.
func (r *workloadResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *workloadResult) merge(o *workloadResult) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Failures = append(r.Failures, o.Failures...)
	for k, v := range o.Passes {
		r.Passes[k] += v
	}
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
	if o.JobLatencies != nil {
		r.JobLatencies = o.JobLatencies
	}
}

// hostInfo fingerprints the machine; -compare refuses results from
// different hosts.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

func thisHost() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}

// results is the results JSON file.
type results struct {
	Host      hostInfo                   `json:"host"`
	Commit    string                     `json:"commit"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Mini      bool                       `json:"mini,omitempty"`
	Started   time.Time                  `json:"started"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// A run of one workload at one trace setting must end within three minutes;
// childTimeout bounds each child of a longer, multi-workload run.
const (
	runTimeout   = 175 * time.Second
	childTimeout = 170 * time.Second
)

func runParent(cfg config, stdout, stderr io.Writer) int {
	spec, err := readSpec(cfg.benchmark)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	names := workloadNames()
	if cfg.workload != "" {
		if _, err := findWorkload(cfg.workload, cfg.seed, cfg.mini); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		names = []string{cfg.workload}
	}
	traces := []int{0, 1}
	if cfg.trace >= 0 {
		traces = []int{cfg.trace}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(names) == 1 && len(traces) == 1 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, runTimeout)
		defer cancel()
	}

	res := &results{Host: thisHost(), Commit: cfg.commit, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
		Mini: cfg.mini, Started: time.Now().UTC(), Workloads: map[string]*workloadResult{}}
	for _, name := range names {
		w, _ := findWorkload(name, cfg.seed, cfg.mini)
		wr := newWorkloadResult()
		for _, t := range traces {
			cr, rss, err := runChildProcess(ctx, cfg, name, t, stderr)
			if err != nil {
				wr.check(false, "%s (trace %d): %v", name, t, err)
				continue
			}
			wr.merge(cr)
			if t == 0 {
				// The service's child only generates load and places the
				// reference in process; its program is the daemon and the
				// workers.
				if w.service {
					rss = cr.TreeMaxRSSKiB
				}
				wr.Metrics["peak_rss_mb"] = newMetric("MiB", float64(rss)/1024)
			}
		}
		// A baseline leg places the rest of a BENCH_baseline.json leg; the
		// multilevel one is a 100k-cell design, up to 50 s on a quiet host
		// and three times that in a slow period, which would not fit in the
		// three minutes a single-workload run may take. The legs belong to a
		// full set only.
		if cfg.seed == 0 && cfg.workload == "" && cfg.baseline != "" && w.baseline != nil && traces[0] == 0 {
			cr, _, err := runChildProcess(ctx, cfg, name, 0, stderr, "-baseline-leg")
			if err != nil {
				wr.check(false, "%s baseline check: %v", name, err)
			} else {
				wr.merge(cr)
			}
		}
		res.Workloads[name] = wr
		printWorkload(stdout, name, wr, spec, traces)
	}
	if cfg.out != "" {
		if err := writeResults(cfg.out, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "bench: results written to %s\n", cfg.out)
		}
	}
	return printSummary(stdout, res, spec, traces)
}

// runChildProcess runs one workload in a child process and returns its
// result and its peak resident set in KiB. The child leads its own process
// group, so a timeout or an interrupt kills it together with the daemon and
// workers it started.
func runChildProcess(ctx context.Context, cfg config, name string, trace int, stderr io.Writer, extra ...string) (*workloadResult, int64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{"-child", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-placed", cfg.placed, "-baseline", cfg.baseline}
	if cfg.mini {
		args = append(args, "-mini")
	}
	args = append(args, extra...)
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	runErr := cmd.Wait()
	// A child that crashed before stopping its daemon leaves it in the
	// group; nothing is left there after a clean exit.
	syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = maxrssKiB(ru)
	}
	if runErr != nil {
		if ctx.Err() != nil {
			return nil, rss, fmt.Errorf("child: %w", ctx.Err())
		}
		return nil, rss, fmt.Errorf("child: %w", runErr)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	r := newWorkloadResult()
	if err := json.Unmarshal(lines[len(lines)-1], r); err != nil {
		return nil, rss, fmt.Errorf("child result: %w", err)
	}
	return r, rss, nil
}

// maxrssKiB reads ru_maxrss, which Linux reports in KiB and macOS in bytes.
func maxrssKiB(ru *syscall.Rusage) int64 {
	if runtime.GOOS == "darwin" {
		return int64(ru.Maxrss) / 1024
	}
	return int64(ru.Maxrss)
}

func runChild(cfg config, stdout, stderr io.Writer) int {
	w, err := findWorkload(cfg.child, cfg.seed, cfg.mini)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	scratch, err := os.MkdirTemp("", "bench-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := newWorkloadResult()
	if cfg.baselineLeg {
		if w.baseline != nil {
			if ins, _, err := generate(catalogs(w.baseline.designs...)); err != nil {
				r.check(false, "baseline: %v", err)
			} else {
				r.checkBaseline(pass(newYardstick(1), ins, w.baseline.opt, runtime.GOMAXPROCS(0), false, ""), cfg.baseline)
			}
		}
	} else if err := measure(ctx, w, cfg, scratch, stderr, r); err != nil {
		r.check(false, "%s: %v", w.name, err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err == nil {
		r.TreeMaxRSSKiB = maxrssKiB(&ru)
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func writeResults(path string, res *results) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// specMetrics lists the metrics a run with these trace settings reports:
// the end-to-end ones for trace 0, the per-layer ones for trace 1.
func specMetrics(spec *benchSpec, traces []int) []metricSpec {
	var out []metricSpec
	for _, t := range traces {
		if t == 0 {
			out = append(out, spec.EndToEnd...)
		} else {
			out = append(out, spec.PerLayer...)
		}
	}
	return out
}

func printWorkload(w io.Writer, name string, r *workloadResult, spec *benchSpec, traces []int) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed\n", name, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	for _, ms := range specMetrics(spec, traces) {
		m, ok := r.Metrics[ms.Name]
		if !ok {
			fmt.Fprintf(w, "   %-28s missing\n", ms.Name)
			continue
		}
		fmt.Fprintf(w, "   %-28s %14.6g %-6s", ms.Name, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, " p25 %.6g  p75 %.6g  n=%d", m.P25, m.P75, m.N)
		}
		if m.RawSamples != nil {
			fmt.Fprintf(w, "  (unscaled %.6g)", m.RawValue)
		}
		fmt.Fprintln(w)
	}
}

// summaryMetric is a metric as the last output line carries it.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary prints the one-line JSON result and returns the exit code:
// 0 when every operation succeeded, 1 otherwise. With several workloads the
// metric names are prefixed "<workload>:".
func printSummary(w io.Writer, res *results, spec *benchSpec, traces []int) int {
	out := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{Metrics: map[string]summaryMetric{}}
	var names []string
	for name := range res.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := res.Workloads[name]
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, ms := range specMetrics(spec, traces) {
			m, ok := r.Metrics[ms.Name]
			if !ok {
				continue
			}
			key := ms.Name
			if len(names) > 1 {
				key = name + ":" + ms.Name
			}
			out.Metrics[key] = summaryMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	if out.Attempted == 0 {
		// Nothing ran: report the failure rather than an empty success.
		out.Attempted, out.Failed = 1, 1
	}
	out.Correct = out.Failed == 0
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{}}\n")
		return 1
	}
	fmt.Fprintln(w, string(data))
	if !out.Correct {
		return 1
	}
	return 0
}
