package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/designio"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// placedBin is the daemon the service tests drive, built once by TestMain.
var placedBin string

// TestMain lets the test binary stand in for the bench command: run
// re-executes os.Executable() with -child, which under go test is this
// binary, so with BENCH_TEST_CHILD set it dispatches straight to run.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_CHILD") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	placedBin = filepath.Join(dir, "placed")
	if out, err := exec.Command("go", "build", "-o", placedBin, "repro/cmd/placed").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building placed: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBench runs the command in process (its children re-execute this test
// binary) and returns the exit code and standard output.
func runBench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	t.Setenv("BENCH_TEST_CHILD", "1")
	var stdout, stderr bytes.Buffer
	args = append([]string{"-placed", placedBin, "-benchmark", "../BENCHMARK.json",
		"-out", filepath.Join(t.TempDir(), "results.json")}, args...)
	code := run(args, &stdout, &stderr)
	t.Logf("bench %s\n%s", strings.Join(args, " "), stderr.String())
	return code, stdout.String()
}

type summaryLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

func lastLine(t *testing.T, stdout string) summaryLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var s summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last output line is not the result object: %v\n%s", err, stdout)
	}
	return s
}

// TestMiniWorkloadsEmitEveryDeclaredMetric runs a miniature of every
// workload (tiny designs, one pass of each kind, two service jobs) at both
// trace settings and checks that every metric BENCHMARK.json names comes out
// with its declared unit and that every operation passed its checks.
func TestMiniWorkloadsEmitEveryDeclaredMetric(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := strings.Join(declared, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, command runs %s", got, want)
	}

	code, stdout := runBench(t, "-mini", "-seed", "1", "-seconds", "0.2")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, stdout)
	}
	s := lastLine(t, stdout)
	if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
		t.Fatalf("result %+v\n%s", s, stdout)
	}
	for _, w := range declared {
		for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			m, ok := s.Metrics[w+":"+ms.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s missing", w, ms.Name)
			case m.Unit != ms.Unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json declares %q", w, ms.Name, m.Unit, ms.Unit)
			}
		}
	}
	for _, ms := range spec.EndToEnd {
		for _, w := range declared {
			if v := s.Metrics[w+":"+ms.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, ms.Name, v)
			}
		}
	}
}

// TestSeedSelectsInputs checks the input contract: seed 0 hands the program
// the catalog designs byte for byte; another seed gives other netlists, the
// same ones every time.
func TestSeedSelectsInputs(t *testing.T) {
	gen := func(seed int64) map[string][]byte {
		out := map[string][]byte{}
		for _, w := range workloads(seed, false) {
			ins, _, err := generate(w.designs)
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range ins {
				out[w.name+"/"+fmt.Sprint(i)] = in.payload
			}
		}
		return out
	}
	zero, one, again := gen(0), gen(1), gen(1)
	verbatim := 0
	for _, w := range workloads(0, false) {
		for i, p := range w.designs {
			key := w.name + "/" + fmt.Sprint(i)
			// The multilevel design is a scaled family member and half the
			// service specs use seed S+1000; every other input is a catalog
			// design.
			if d, err := synth.Generate(p.Name); err == nil {
				var buf bytes.Buffer
				if err := designio.Write(&buf, d); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(zero[key], buf.Bytes()) {
					t.Errorf("%s: seed 0 input differs from catalog design %s", key, p.Name)
				}
				verbatim++
			}
			if bytes.Equal(zero[key], one[key]) {
				t.Errorf("%s: seed 1 input equals seed 0", key)
			}
			if !bytes.Equal(one[key], again[key]) {
				t.Errorf("%s: seed 1 input is not deterministic", key)
			}
		}
	}
	if verbatim != 9 {
		t.Errorf("%d seed-0 inputs are catalog designs, want 9", verbatim)
	}
}

// TestBoundaryCaptureLeavesPlacementUnchanged checks that the traced job's
// observer and end-of-phase-1 capture (a checkpoint path plus a boundary
// hook that always continues) change neither the placement nor the disk.
func TestBoundaryCaptureLeavesPlacementUnchanged(t *testing.T) {
	for _, name := range []string{"routability", "multilevel"} {
		w, err := findWorkload(name, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		ins, _, err := generate(w.designs)
		if err != nil {
			t.Fatal(err)
		}
		scratch := t.TempDir()
		plain := placeJob(ins[0], w.opt, 1, false, "")
		traced := placeJob(ins[0], w.opt, 1, true, scratch)
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: %v / %v", name, plain.err, traced.err)
		}
		if plain.hash != traced.hash {
			t.Errorf("%s: traced placement differs from the untraced one", name)
		}
		c := traced.trace
		if len(c.pos) != 2*len(traced.design.Cells) {
			t.Errorf("%s: captured %d coordinates, want %d", name, len(c.pos), 2*len(traced.design.Cells))
		}
		if total := counter(traced, "objective.evals"); c.p1Evals <= 0 || c.p1Evals >= total {
			t.Errorf("%s: phase-1 evaluations %d of %d", name, c.p1Evals, total)
		}
		if files, _ := os.ReadDir(scratch); len(files) != 0 {
			t.Errorf("%s: the capture wrote %d files", name, len(files))
		}
	}
}

// TestCorruptedReferenceFails checks the baseline check of the routability
// panel: the command passes against a reference holding the miniature
// panel's true numbers and fails, with a non-zero exit, once one number is
// corrupted. The panel does not depend on the seed, so neither does the
// check.
func TestCorruptedReferenceFails(t *testing.T) {
	w, err := findWorkload("routability", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !w.panel.checked {
		t.Fatal("the routability panel is not checked against the baseline")
	}
	ins, _, err := generate(w.panel.designs)
	if err != nil {
		t.Fatal(err)
	}
	j := placeJob(ins[0], w.panel.opt, 1, false, "")
	if j.err != nil {
		t.Fatal(j.err)
	}
	write := func(drvsScale float64) string {
		b := telemetry.Baseline{Label: "test", Metrics: []telemetry.Metric{
			{Name: "bench.tiny_hot.hpwl", Kind: "gauge", Value: j.res.HPWLFinal},
			{Name: "bench.tiny_hot.drwl", Kind: "gauge", Value: j.res.Metrics.DRWL},
			{Name: "bench.tiny_hot.drvs", Kind: "gauge", Value: float64(j.res.Metrics.DRVs) * drvsScale},
		}}
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	args := []string{"-mini", "-workload", "routability", "-seed", "2", "-trace", "0", "-seconds", "0.1", "-baseline"}
	if code, stdout := runBench(t, append(args, write(1))...); code != 0 || !lastLine(t, stdout).Correct {
		t.Fatalf("true reference: exit %d\n%s", code, stdout)
	}
	code, stdout := runBench(t, append(args, write(1.1))...)
	if s := lastLine(t, stdout); code == 0 || s.Correct || s.Failed == 0 {
		t.Fatalf("corrupted reference: exit %d, result %+v", code, s)
	}
}

// TestBracketScalesEveryOp checks that the yardstick brackets each operation
// in order and gives it a positive scale, and that scaling applies it.
func TestBracketScalesEveryOp(t *testing.T) {
	y := newYardstick(1)
	var order []int
	scales := y.bracket(2, 3, func(i int) { order = append(order, i) })
	if fmt.Sprint(order) != "[0 1 2]" || len(scales) != 3 {
		t.Fatalf("ops ran %v, %d scales", order, len(scales))
	}
	for i, s := range scales {
		if !(s > 0) {
			t.Errorf("op %d: scale %v", i, s)
		}
	}
	if got := scaled(2*time.Second, 0.5); got != 1 {
		t.Errorf("2 s at scale 0.5 = %v s, want 1", got)
	}
}

// TestCompareVerdicts checks the comparer's rule on one metric, against one
// base set and against repeated ones, and its refusal to compare different
// hosts or seeds.
func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "place_s.w1", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	cases := []struct {
		ms    metricSpec
		bases [][]float64
		cur   []float64
		want  string
	}{
		{lower, [][]float64{{1, 1.01}}, []float64{1.02, 1.03}, "unchanged"},
		{lower, [][]float64{{1, 1.01}}, []float64{1.2, 1.21}, "regressed"},
		{lower, [][]float64{{1, 1.01}}, []float64{0.8, 0.81}, "improved"},
		{lower, [][]float64{{1, 1.5}}, []float64{1.2, 1.21}, "unresolved"},
		{higher, [][]float64{{1, 1.01}}, []float64{0.8, 0.81}, "regressed"},
		{higher, [][]float64{{1, 1.01}}, []float64{1.2, 1.21}, "improved"},
		// Two base sets from a fast and a slow host period: each is tight,
		// but they disagree by 30%, so a 20% change cannot be told apart.
		{lower, [][]float64{{1, 1.01}, {1.3, 1.31}}, []float64{1.4, 1.41}, "unresolved"},
		{lower, [][]float64{{1, 1.01}, {1.03, 1.04}, {1.02, 1.03}}, []float64{1.2, 1.21}, "regressed"},
		{lower, [][]float64{{1, 1.01}, {1.03, 1.04}}, []float64{1.05, 1.06}, "unchanged"},
	}
	for _, c := range cases {
		var bases []metric
		for _, b := range c.bases {
			bases = append(bases, newMetric(c.ms.Unit, b...))
		}
		if got := verdict(c.ms, bases, newMetric(c.ms.Unit, c.cur...)); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.ms.Name, c.bases, c.cur, got, c.want)
		}
	}

	dir := t.TempDir()
	save := func(name string, h hostInfo, seed int64, v float64) string {
		path := filepath.Join(dir, name)
		r := &results{Host: h, Seed: seed, Workloads: map[string]*workloadResult{
			"routability": {Metrics: map[string]metric{"place_s.w1": newMetric("s", v)}},
		}}
		if err := writeResults(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h := thisHost()
	other := h
	other.NumCPU++
	compare := func(paths ...string) (int, string) {
		var out, errs bytes.Buffer
		code := runCompare("../BENCHMARK.json", paths, &out, &errs)
		return code, out.String() + errs.String()
	}
	a, a2 := save("a.json", h, 0, 1), save("a2.json", h, 0, 1.02)
	slow := save("b.json", h, 0, 1.5)
	if code, out := compare(a, slow); code != 1 || !strings.Contains(out, "regressed") {
		t.Errorf("same host, 50%% slower: exit %d\n%s", code, out)
	}
	if code, out := compare(a, a2, slow); code != 1 || !strings.Contains(out, "regressed") {
		t.Errorf("two base sets, 50%% slower: exit %d\n%s", code, out)
	}
	if code, out := compare(a, save("c.json", other, 0, 1)); code != 2 || !strings.Contains(out, "different hosts") {
		t.Errorf("different hosts: exit %d, want 2\n%s", code, out)
	}
	if code, out := compare(a, save("d.json", h, 1, 1)); code != 2 || !strings.Contains(out, "different seeds") {
		t.Errorf("different seeds: exit %d, want 2\n%s", code, out)
	}
	if code, out := compare(save("e.json", h, 1, 1), a, a2); code != 2 || !strings.Contains(out, "different seeds") {
		t.Errorf("base sets of different seeds: exit %d, want 2\n%s", code, out)
	}
}
