package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// emitTrace runs a small instrumented workload and returns its raw trace.
// Real wall-clock timestamps are fine: everything the report and diff
// layers treat as deterministic is independent of them.
func emitTrace(t testing.TB, iters int, hpwlStep float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	o := telemetry.NewObserver(&buf)
	root := o.StartSpan("place")
	for i := 0; i < iters; i++ {
		sp := o.StartSpan("route_iter")
		o.Snapshot("route_iter", i,
			telemetry.F("overflow_score", float64(100)-hpwlStep*float64(i)),
			telemetry.F("lambda2", 0.1*float64(i)))
		o.Grid("congestion", i, 2, 2, []float64{0.1, 0.9, 0.4, float64(i)})
		sp.End()
	}
	root.End()
	o.Counter("route.calls").Add(int64(iters))
	o.Histogram("nesterov.step_size").Observe(0.5)
	o.VolatileGauge("parallel.route.speedup").Set(3.3)
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadTraceRoundTrip(t *testing.T) {
	raw := emitTrace(t, 3, 20)
	tr, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Malformed) != 0 {
		t.Fatalf("clean trace reported malformed lines: %+v", tr.Malformed)
	}
	want := []struct {
		name         string
		depth, count int
	}{
		{"place", 0, 1}, {"route_iter", 1, 3},
	}
	if len(tr.Stages) != len(want) {
		t.Fatalf("parsed %d stages, want %d: %+v", len(tr.Stages), len(want), tr.Stages)
	}
	for i, w := range want {
		if tr.Stages[i].Name != w.name || tr.Stages[i].Depth != w.depth || tr.Stages[i].Count != w.count {
			t.Errorf("stage %d = %+v, want %+v", i, tr.Stages[i], w)
		}
	}
	if got := len(tr.Snaps["route_iter"]); got != 3 {
		t.Errorf("route_iter series has %d samples, want 3", got)
	}
	if got := len(tr.Grids["congestion"]); got != 3 {
		t.Errorf("congestion grid series has %d frames, want 3", got)
	}
	g := tr.Grids["congestion"][2]
	if g.NX != 2 || g.NY != 2 || len(g.Data) != 4 {
		t.Errorf("grid frame wrong: %+v", g)
	}
	vals := telemetry.DecodeGridValues(g.Data, g.Max)
	if len(vals) != 4 || vals[3] < 1.9 || vals[3] > 2.1 {
		t.Errorf("grid decode wrong: %v", vals)
	}
	fm := tr.FinalMetrics()
	if fm["route.calls"].Value != 3 {
		t.Errorf("final route.calls = %v, want 3", fm["route.calls"].Value)
	}
	if !fm["parallel.route.speedup"].Volatile {
		t.Error("volatile flag lost in parsing")
	}
}

func TestReadTraceToleratesMalformedLines(t *testing.T) {
	raw := emitTrace(t, 2, 20)
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var corrupted bytes.Buffer
	corrupted.WriteString("this is not json\n")
	for i, ln := range lines {
		corrupted.Write(ln)
		corrupted.WriteByte('\n')
		if i == 1 {
			corrupted.WriteString(`{"seq": truncated...` + "\n")
		}
	}
	tr, err := ReadTrace(&corrupted)
	if err != nil {
		t.Fatalf("malformed lines aborted the parse: %v", err)
	}
	if len(tr.Malformed) != 2 {
		t.Fatalf("recorded %d malformed lines, want 2: %+v", len(tr.Malformed), tr.Malformed)
	}
	if tr.Malformed[0].Line != 1 || tr.Malformed[1].Line != 4 {
		t.Errorf("malformed line numbers = %d, %d; want 1, 4",
			tr.Malformed[0].Line, tr.Malformed[1].Line)
	}
	if len(tr.Events) != len(lines) {
		t.Errorf("parsed %d events, want %d (all valid lines kept)", len(tr.Events), len(lines))
	}
	var rep strings.Builder
	tr.WriteReport(&rep)
	if !strings.Contains(rep.String(), "2 malformed lines skipped") {
		t.Errorf("report does not surface malformed count:\n%s", rep.String())
	}
}

func TestSparkline(t *testing.T) {
	if s := Sparkline(nil, 10); s != "" {
		t.Errorf("empty series sparkline = %q", s)
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10)
	if len(s) != 10 {
		t.Fatalf("sparkline width %d, want 10", len(s))
	}
	if s[0] != sparkLevels[0] || s[9] != sparkLevels[len(sparkLevels)-1] {
		t.Errorf("sparkline extremes wrong: %q", s)
	}
	// Constant series: mid-level everywhere, no div-by-zero.
	c := Sparkline([]float64{2, 2, 2}, 10)
	if len(c) != 3 {
		t.Errorf("constant series width %d, want 3", len(c))
	}
	// Downsampling long series to the target width.
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	if got := Sparkline(long, 60); len(got) != 60 {
		t.Errorf("downsampled width %d, want 60", len(got))
	}
	// A span that overflows float64, and a column mean that does.
	if got := Sparkline([]float64{-1.7e308, 1.7e308}, 10); got != " @" {
		t.Errorf("extreme series sparkline = %q, want %q", got, " @")
	}
	if got := Sparkline([]float64{1.7e308, 1.7e308, 0, 0}, 2); len(got) != 2 {
		t.Errorf("overflowing mean sparkline = %q", got)
	}
}

func TestWriteReport(t *testing.T) {
	raw := emitTrace(t, 5, 20)
	tr, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var rep strings.Builder
	tr.WriteReport(&rep)
	out := rep.String()
	for _, want := range []string{
		"Per-stage timing", "place", "route_iter",
		"Convergence: route_iter (5 samples)", "overflow_score", "lambda2",
		"Grid series: congestion (5 frames, 2x2",
		"Metrics", "route.calls", "nesterov.step_size",
		"p50=", "p95=", "p99=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestStageLevel(t *testing.T) {
	cases := []struct {
		name string
		lvl  int
		bare string
	}{
		{"wirelength", 0, "wirelength"},
		{"L1/wirelength", 1, "wirelength"},
		{"L2/route_iter", 2, "route_iter"},
		{"L12/place", 12, "place"},
		{"L0/setup", 0, "L0/setup"},   // level 0 never carries a prefix
		{"Lx/setup", 0, "Lx/setup"},   // malformed: not a level prefix
		{"Lambda/x", 0, "Lambda/x"},   // "L"-leading word, not a prefix
		{"legalize", 0, "legalize"},   // starts with L, no slash
		{"L-1/setup", 0, "L-1/setup"}, // negative levels don't exist
	}
	for _, c := range cases {
		lvl, bare := StageLevel(c.name)
		if lvl != c.lvl || bare != c.bare {
			t.Errorf("StageLevel(%q) = (%d, %q), want (%d, %q)", c.name, lvl, bare, c.lvl, c.bare)
		}
	}
}

// emitMultilevelTrace mimics the span stream of a 2-level placement: the
// coarse level's spans are "L1/"-prefixed, the finest level's are bare.
func emitMultilevelTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	o := telemetry.NewObserver(&buf)
	for _, prefix := range []string{"L1/", ""} {
		root := o.StartSpan(prefix + "place")
		sp := o.StartSpan(prefix + "phase1_wirelength")
		sp.End()
		for i := 0; i < 2; i++ {
			it := o.StartSpan(prefix + "route_iter")
			it.End()
		}
		root.End()
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLevelStagesGroupsByHierarchyLevel(t *testing.T) {
	tr, err := ReadTrace(bytes.NewReader(emitMultilevelTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	groups := tr.LevelStages()
	if len(groups) != 2 {
		t.Fatalf("got %d level groups, want 2: %+v", len(groups), groups)
	}
	if groups[0].Level != 1 || groups[1].Level != 0 {
		t.Fatalf("level order = [%d %d], want coarsest first [1 0]", groups[0].Level, groups[1].Level)
	}
	for _, g := range groups {
		wantNames := []string{"place", "phase1_wirelength", "route_iter"}
		if len(g.Stages) != len(wantNames) {
			t.Fatalf("level %d has %d stages, want %d: %+v", g.Level, len(g.Stages), len(wantNames), g.Stages)
		}
		for i, want := range wantNames {
			if g.Stages[i].Name != want {
				t.Errorf("level %d stage %d = %q, want bare name %q", g.Level, i, g.Stages[i].Name, want)
			}
		}
	}
	if groups[0].Stages[2].Count != 2 {
		t.Errorf("L1 route_iter count = %d, want 2", groups[0].Stages[2].Count)
	}

	// A flat trace keeps a single level-0 group with the original names.
	flat, err := ReadTrace(bytes.NewReader(emitTrace(t, 2, 20)))
	if err != nil {
		t.Fatal(err)
	}
	fg := flat.LevelStages()
	if len(fg) != 1 || fg[0].Level != 0 || len(fg[0].Stages) != len(flat.Stages) {
		t.Fatalf("flat trace level groups = %+v, want one level-0 group", fg)
	}
}

func TestWriteReportPerLevelTables(t *testing.T) {
	tr, err := ReadTrace(bytes.NewReader(emitMultilevelTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	var rep strings.Builder
	tr.WriteReport(&rep)
	out := rep.String()
	coarse := strings.Index(out, "Per-stage timing — level 1 (coarse")
	finest := strings.Index(out, "Per-stage timing — level 0 (finest")
	if coarse < 0 || finest < 0 {
		t.Fatalf("report missing per-level timing tables:\n%s", out)
	}
	if coarse > finest {
		t.Errorf("coarse level table printed after the finest level:\n%s", out)
	}
	if strings.Contains(out, "L1/") {
		t.Errorf("per-level tables leak the L1/ prefix:\n%s", out)
	}

	// Flat traces keep the classic single-table header.
	flat, err := ReadTrace(bytes.NewReader(emitTrace(t, 2, 20)))
	if err != nil {
		t.Fatal(err)
	}
	rep.Reset()
	flat.WriteReport(&rep)
	if !strings.Contains(rep.String(), "Per-stage timing\n") || strings.Contains(rep.String(), "level 0") {
		t.Errorf("flat report changed shape:\n%s", rep.String())
	}
}

func TestReportMarksVolatileMetrics(t *testing.T) {
	var buf bytes.Buffer
	obs := telemetry.NewObserver(&buf)
	obs.VolatileGauge("parallel.density.speedup").Set(2.5)
	obs.Counter("route.calls").Inc()
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	tr.WriteReport(&out)
	rep := out.String()
	if !strings.Contains(rep, "parallel.density.speedup") {
		t.Errorf("report dropped a volatile gauge:\n%s", rep)
	}
	if !strings.Contains(rep, "gauge*") || !strings.Contains(rep, "excluded from canonical traces") {
		t.Errorf("report does not mark volatile metrics:\n%s", rep)
	}
}

func TestDiffIdenticalRunsReportNoDrift(t *testing.T) {
	// Same workload, different wall clocks: deterministic drift must be
	// NONE even though durations (and the volatile speedup gauge) differ.
	parse := func(raw []byte) *Trace {
		tr, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := parse(emitTrace(t, 4, 20))
	b := parse(emitTrace(t, 4, 20))
	d := Compare(a, b)
	if drift := d.DeterministicDrift(); len(drift) != 0 {
		t.Fatalf("identical runs report drift: %v", drift)
	}
	var rep strings.Builder
	d.WriteReport(&rep)
	if !strings.Contains(rep.String(), "Deterministic drift: NONE") {
		t.Errorf("diff report missing NONE marker:\n%s", rep.String())
	}
	if !strings.Contains(rep.String(), "Per-stage timing") {
		t.Errorf("diff report missing timing table:\n%s", rep.String())
	}
}

func TestDiffDetectsDeterministicDrift(t *testing.T) {
	parse := func(raw []byte) *Trace {
		tr, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := parse(emitTrace(t, 4, 20)) // 4 iterations
	b := parse(emitTrace(t, 6, 15)) // 6 iterations, different convergence
	d := Compare(a, b)
	drift := d.DeterministicDrift()
	if len(drift) == 0 {
		t.Fatal("divergent runs report no drift")
	}
	joined := strings.Join(drift, "\n")
	for _, want := range []string{
		"stage route_iter: count 4 → 6",
		"series route_iter: 4 → 6 iterations",
		"metric route.calls",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("drift findings missing %q:\n%s", want, joined)
		}
	}
	// The volatile speedup gauge must never appear as drift even if it
	// differed (here both runs set the same value; assert by name anyway).
	if strings.Contains(joined, "speedup") {
		t.Errorf("volatile metric reported as deterministic drift:\n%s", joined)
	}
}
