package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/density"
	"repro/internal/guard"
	"repro/internal/guard/inject"
	"repro/internal/nesterov"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/telemetry/report"
	"repro/internal/wirelength"
)

func TestRouteItersMatchesCongestionHistory(t *testing.T) {
	// Each router call appends one entry to CongestionHistory; RouteIters
	// must count exactly those calls, including the final call before a
	// stall/zero-overflow break.
	for _, mode := range []Mode{ModeBaselineRoute, ModeOurs} {
		d := synth.MustGenerate("tiny_hot")
		res, err := Place(d, fastOpts(mode))
		if err != nil {
			t.Fatal(err)
		}
		if res.RouteIters != len(res.CongestionHistory) {
			t.Errorf("mode %v: RouteIters %d != len(CongestionHistory) %d",
				mode, res.RouteIters, len(res.CongestionHistory))
		}
		if res.RouteIters == 0 {
			t.Errorf("mode %v: no route iterations recorded", mode)
		}
	}
}

// tracedRun places tiny_hot with a trace-collecting observer and returns
// the result, raw trace bytes and the metrics snapshot.
func tracedRun(t *testing.T, logSink *strings.Builder) (*Result, []byte, []telemetry.Metric) {
	t.Helper()
	d := synth.MustGenerate("tiny_hot")
	var trace bytes.Buffer
	obs := telemetry.NewObserver(&trace)
	opt := fastOpts(ModeOurs)
	opt.Observer = obs
	if logSink != nil {
		opt.Log = logSink
	}
	res, err := Place(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, trace.Bytes(), obs.Metrics.Snapshot()
}

func TestTraceDeterministic(t *testing.T) {
	// Two identical runs must produce byte-identical canonical traces
	// (wall-clock content stripped) and identical canonical metrics.
	_, trace1, met1 := tracedRun(t, nil)
	_, trace2, met2 := tracedRun(t, nil)

	c1, err := telemetry.StripTimings(trace1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := telemetry.StripTimings(trace2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		a := strings.Split(string(c1), "\n")
		b := strings.Split(string(c2), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("canonical traces diverge at line %d:\n  run1: %s\n  run2: %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("canonical traces differ in length: %d vs %d lines", len(a), len(b))
	}

	// Every non-volatile metric must agree exactly. The volatile gauges
	// (realized worker count, busy/wall speedups) are wall-clock content
	// outside the determinism contract.
	can1 := telemetry.CanonicalMetrics(met1)
	can2 := telemetry.CanonicalMetrics(met2)
	if len(can1) == 0 {
		t.Fatal("no canonical metrics recorded")
	}
	if len(can1) != len(can2) {
		t.Fatalf("canonical metric sets differ in size: %d vs %d\n  run1: %+v\n  run2: %+v",
			len(can1), len(can2), can1, can2)
	}
	for i := range can1 {
		if can1[i] != can2[i] {
			t.Errorf("canonical metrics differ:\n  run1: %+v\n  run2: %+v", can1[i], can2[i])
		}
	}
}

func TestTraceSpansCoverPlaceTime(t *testing.T) {
	res, raw, _ := tracedRun(t, nil)
	tr, err := report.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	var place, eval, children time.Duration
	for _, s := range tr.Stages {
		switch {
		case s.Name == "place":
			place = s.Total
		case s.Name == "eval":
			eval = s.Total
		case s.Depth == 1: // direct children of "place"
			children += s.Total
		}
	}
	if place == 0 || eval == 0 {
		t.Fatalf("missing top-level spans: place=%v eval=%v", place, eval)
	}
	// The "place" span closes exactly where PlaceTime is measured; they
	// must agree within scheduling noise.
	if diff := (place - res.PlaceTime).Abs(); diff > res.PlaceTime/5+5*time.Millisecond {
		t.Errorf("place span %v vs PlaceTime %v (diff %v)", place, res.PlaceTime, diff)
	}
	if diff := (eval - res.RouteTime).Abs(); diff > res.RouteTime/5+5*time.Millisecond {
		t.Errorf("eval span %v vs RouteTime %v (diff %v)", eval, res.RouteTime, diff)
	}
	// The phase spans must account for most of the place time (the gaps
	// are HPWL computations and logging between stages).
	if children < place/2 {
		t.Errorf("child spans sum to %v, less than half of place %v", children, place)
	}
	if children > place+place/10 {
		t.Errorf("child spans sum to %v, exceeding place %v", children, place)
	}

	// StageTimings on the Result must mirror the trace aggregation.
	if len(res.StageTimings) == 0 {
		t.Fatal("Result.StageTimings empty despite Observer")
	}
	byName := map[string]telemetry.StageTiming{}
	for _, s := range res.StageTimings {
		byName[s.Name] = s
	}
	for _, want := range []string{"place", "setup", "phase1_wirelength",
		"phase2_routability", "route_iter", "route", "nesterov", "legalize",
		"detailed", "eval", "eval.score"} {
		if byName[want].Count == 0 {
			t.Errorf("StageTimings missing stage %q", want)
		}
	}
	if rt := byName["route_iter"]; rt.Count != res.RouteIters {
		t.Errorf("route_iter span count %d != RouteIters %d", rt.Count, res.RouteIters)
	}
}

func TestLogLinesMirroredToTrace(t *testing.T) {
	// Every plain-text log line must also exist as a log/timing event in
	// the trace (satellite: logs and traces can never drift apart).
	var logSink strings.Builder
	_, raw, _ := tracedRun(t, &logSink)
	tr, err := report.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	eventMsgs := map[string]bool{}
	for _, ev := range tr.Events {
		if ev.Ev == "log" || ev.Ev == "timing" {
			eventMsgs[ev.Msg] = true
		}
	}
	logLines := strings.Split(strings.TrimSpace(logSink.String()), "\n")
	if len(logLines) < 3 {
		t.Fatalf("too few log lines to test: %q", logSink.String())
	}
	for _, line := range logLines {
		if !eventMsgs[line] {
			t.Errorf("log line not in trace: %q", line)
		}
	}
}

func TestTraceSnapshotsPresent(t *testing.T) {
	res, raw, met := tracedRun(t, nil)
	tr, err := report.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Snaps["wl_iter"]); n != res.WLIters {
		t.Errorf("wl_iter snapshots %d != WLIters %d", n, res.WLIters)
	}
	if n := len(tr.Snaps["route_iter"]); n != res.RouteIters {
		t.Errorf("route_iter snapshots %d != RouteIters %d", n, res.RouteIters)
	}
	// One congestion heatmap frame per route iteration, decodable.
	grids := tr.Grids["congestion"]
	if len(grids) != res.RouteIters {
		t.Errorf("congestion grid frames %d != RouteIters %d", len(grids), res.RouteIters)
	}
	for _, g := range grids {
		if g.NX <= 0 || g.NY <= 0 || len(g.Data) != g.NX*g.NY {
			t.Errorf("grid frame iter %d malformed: nx=%d ny=%d len(data)=%d",
				g.Iter, g.NX, g.NY, len(g.Data))
		}
	}
	// The convergence fields the paper's Fig. 2 loop reasons about.
	first := tr.Snaps["route_iter"][0]
	for _, key := range []string{"hpwl", "overflow_score", "max_util",
		"dens_overflow", "lambda1", "lambda2", "gamma", "infl_mean", "infl_max"} {
		if _, ok := first.F[key]; !ok {
			t.Errorf("route_iter snapshot missing field %q: %v", key, first.F)
		}
	}
	// Key registry metrics must be populated.
	byName := map[string]telemetry.Metric{}
	for _, m := range met {
		byName[m.Name] = m
	}
	for _, name := range []string{"objective.evals", "poisson.solves",
		"route.calls", "route.ripup_rounds", "nesterov.step_size",
		"eval.drvs", "place.hpwl_final"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("metrics registry missing %q", name)
		}
	}
	if byName["route.calls"].Value != float64(res.RouteIters) {
		t.Errorf("route.calls %v != RouteIters %d", byName["route.calls"].Value, res.RouteIters)
	}
	if byName["objective.evals"].Value <= 0 || byName["poisson.solves"].Value <= 0 {
		t.Errorf("eval/solve counters empty: %+v", byName)
	}
}

// benchStepObjective builds the real placement objective on a tiny design,
// ready for inner Nesterov steps.
func benchStepObjective(b *testing.B, obs *telemetry.Observer) (*objective, *nesterov.Optimizer) {
	b.Helper()
	d := synth.MustGenerate("tiny_hot")
	spreadInitial(d)
	dens := density.New(d, 32)
	wl := wirelength.New(d, dens.BinW()*5)
	obj := newObjective(d, wl, dens, nil)
	obj.poissonSolves = obs.Counter("poisson.solves")
	x := make([]float64, obj.dim())
	obj.gather(x)
	optm := nesterov.New(x, dens.BinW()*0.1)
	optm.StepMax = dens.BinW() * 4
	if obs != nil {
		evals := obs.Counter("objective.evals")
		stepHist := obs.Histogram("nesterov.step_size")
		optm.OnStep = func(_ int, step float64) {
			evals.Inc()
			stepHist.Observe(step)
		}
	}
	return obj, optm
}

// BenchmarkInnerStepNilObserver vs BenchmarkInnerStepWithObserver compare
// the fully-instrumented inner Nesterov step (the hot path) with telemetry
// disabled and enabled. The nil-observer delta against the seed is the
// acceptance bar: 0 allocs/op added.
func BenchmarkInnerStepNilObserver(b *testing.B) {
	obj, optm := benchStepObjective(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optm.Step(obj)
	}
}

func BenchmarkInnerStepWithObserver(b *testing.B) {
	obj, optm := benchStepObjective(b, telemetry.NewObserver(nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optm.Step(obj)
	}
}

// TestFailedRunEndsEverySpanOnce: a run that fails inside the routability
// stage still writes a well-formed trace — every span that starts ends
// exactly once — whether the failure is in the loop prologue (an unknown
// inflation scheme), a cancellation between Nesterov steps, or a guard
// violation in a Nesterov step.
func TestFailedRunEndsEverySpanOnce(t *testing.T) {
	ref, err := Place(synth.MustGenerate("tiny_hot"), fastOpts(ModeOurs))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string // want: a substring of the run's error
		set        func(*Options, context.CancelFunc)
	}{
		{"prologue", "unknown inflation scheme", func(o *Options, _ context.CancelFunc) {
			o.Tech.InflationScheme = "quantum"
		}},
		{"cancel", "context canceled", func(o *Options, cancel context.CancelFunc) {
			o.Log = &cancelOnLog{cancel: cancel, trigger: "route iter 1:"}
		}},
		{"guard", "at routability", func(o *Options, _ context.CancelFunc) {
			o.Guard = guard.Config{Policy: guard.Fail}
			o.FaultInjector = inject.New(42).Arm(inject.WAGradNaN, ref.WLIters+2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var trace bytes.Buffer
			obs := telemetry.NewObserver(&trace)
			opt := fastOpts(ModeOurs)
			opt.Observer = obs
			tc.set(&opt, cancel)
			_, err := PlaceContext(ctx, synth.MustGenerate("tiny_hot"), opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run returned %v, want an error containing %q", err, tc.want)
			}
			if err := obs.Flush(); err != nil {
				t.Fatal(err)
			}
			names, ends := map[int]string{}, map[int]int{}
			for _, line := range bytes.Split(bytes.TrimSpace(trace.Bytes()), []byte("\n")) {
				var ev struct {
					Ev   string `json:"ev"`
					Span int    `json:"span"`
					Name string `json:"name"`
				}
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatalf("trace line %q: %v", line, err)
				}
				switch ev.Ev {
				case "span_start":
					names[ev.Span] = ev.Name
				case "span_end":
					ends[ev.Span]++
				}
			}
			if len(names) == 0 {
				t.Fatal("trace has no spans")
			}
			for id, name := range names {
				if ends[id] != 1 {
					t.Errorf("span %d (%s) ended %d times, want 1", id, name, ends[id])
				}
			}
			for id, n := range ends {
				if _, ok := names[id]; !ok {
					t.Errorf("span %d ended %d times but never started", id, n)
				}
			}
		})
	}
}
