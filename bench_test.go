package nmplace

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index):
//
//	BenchmarkTable1*        — Table I  (Xplace / Xplace-Route / Ours)
//	BenchmarkTable2Ablation — Table II (MCI / DC / DPA ladder)
//	BenchmarkFig1Congestion — Fig. 1   (local vs global decomposition)
//	BenchmarkFig3NetMoving  — Fig. 3   (virtual-cell gradient assembly)
//	BenchmarkFig4PGRails    — Fig. 4   (PG-rail selection)
//	BenchmarkAblation*      — the extra design-choice ablations A1–A3
//
// Each benchmark prints the paper-relevant series through b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the rows; absolute numbers are
// oracle-specific but the cross-mode ratios are the reproduction target.
// Table benches run on a representative subset for time; `go run ./cmd/table1`
// runs the full 20-design suite.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/designio"
	"repro/internal/poisson"
	"repro/internal/route"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/wirelength"
)

// benchDesigns is the representative Table I subset used by the benchmarks:
// one design per family spanning hot and calm routability regimes.
var benchDesigns = []string{"fft_b", "des_perf_1", "pci_bridge32_a", "matrix_mult_b"}

// largeBench is the multilevel large-design leg of the bench suite:
// superblue1_big (100k cells) through the Levels=3 clustered flow with a
// bounded iteration budget — enough to exercise coarsening, interpolation
// and the full finest level end-to-end while keeping the gate tractable.
var largeBench = struct {
	design                  string
	levels, wlIters, rIters int
}{"superblue1_big", 3, 120, 3}

// runBenchSuite places every benchDesigns entry in ModeOurs into obs, then
// the largeBench multilevel leg, recording the per-design headline metrics
// as gauges alongside the shared pipeline counters. Shared by the baseline
// writer and the regression gate so both measure exactly the same run.
func runBenchSuite(t *testing.T, obs *telemetry.Observer) {
	t.Helper()
	record := func(name string, opt core.Options) {
		d, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		opt.Mode = core.ModeOurs
		opt.Tech = core.AllTechniques()
		opt.Observer = obs
		res, err := core.Place(d, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		obs.Gauge(fmt.Sprintf("bench.%s.drwl", name)).Set(res.Metrics.DRWL)
		obs.Gauge(fmt.Sprintf("bench.%s.drvias", name)).Set(float64(res.Metrics.DRVias))
		obs.Gauge(fmt.Sprintf("bench.%s.drvs", name)).Set(float64(res.Metrics.DRVs))
		obs.Gauge(fmt.Sprintf("bench.%s.hpwl", name)).Set(res.HPWLFinal)
		obs.Gauge(fmt.Sprintf("bench.%s.route_iters", name)).Set(float64(res.RouteIters))
	}
	for _, name := range benchDesigns {
		record(name, core.Options{})
	}
	record(largeBench.design, core.Options{
		Levels:        largeBench.levels,
		MaxWLIters:    largeBench.wlIters,
		MaxRouteIters: largeBench.rIters,
	})
}

// TestWriteBenchBaseline regenerates BENCH_baseline.json: the telemetry
// registry of one ModeOurs run over every benchDesigns entry, with the
// per-design headline metrics added as gauges. The file is the committed
// machine-readable reference; TestBenchRegression diffs a fresh run against
// it to spot quality or work-count regressions. Skipped unless
// WRITE_BENCH_BASELINE=1 (it places four real designs, far slower than the
// unit suite).
//
//	WRITE_BENCH_BASELINE=1 go test -run TestWriteBenchBaseline .
//
// Regenerate the file whenever an intentional algorithm change shifts the
// headline numbers; the volatile (wall-clock) metrics it contains are
// ignored by the comparison.
func TestWriteBenchBaseline(t *testing.T) {
	if os.Getenv("WRITE_BENCH_BASELINE") != "1" {
		t.Skip("set WRITE_BENCH_BASELINE=1 to regenerate BENCH_baseline.json")
	}
	obs := telemetry.NewObserver(nil) // registry only; no event stream
	runBenchSuite(t, obs)
	f, err := os.Create("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	label := fmt.Sprintf("mode=ours designs=%v large=%s(levels=%d,wl=%d,r=%d)",
		benchDesigns, largeBench.design, largeBench.levels, largeBench.wlIters, largeBench.rIters)
	if err := telemetry.WriteBaseline(f, label, obs.Metrics); err != nil {
		t.Fatal(err)
	}
}

// benchRegressionTol is the relative drift allowed per metric before the
// regression gate fails. The placer is deterministic, so on identical code
// a fresh run reproduces the baseline exactly; the tolerance only absorbs
// cross-platform libm differences (math.Exp/Pow are not bit-specified
// across architectures or Go releases).
const benchRegressionTol = 0.02

// TestBenchRegression re-runs the benchmark suite and fails if any
// non-volatile baseline metric drifts beyond benchRegressionTol. Run by the
// CI bench job; skipped unless BENCH_REGRESSION=1 (same cost as the
// baseline writer). After an intentional quality/work change, refresh the
// reference with WRITE_BENCH_BASELINE=1 (see TestWriteBenchBaseline).
//
//	BENCH_REGRESSION=1 go test -run TestBenchRegression .
func TestBenchRegression(t *testing.T) {
	if os.Getenv("BENCH_REGRESSION") != "1" {
		t.Skip("set BENCH_REGRESSION=1 to compare against BENCH_baseline.json")
	}
	f, err := os.Open("BENCH_baseline.json")
	if err != nil {
		t.Fatalf("no baseline (regenerate with WRITE_BENCH_BASELINE=1): %v", err)
	}
	base, err := telemetry.ReadBaseline(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	obs := telemetry.NewObserver(nil)
	runBenchSuite(t, obs)
	got := map[string]telemetry.Metric{}
	for _, m := range obs.Metrics.Snapshot() {
		got[m.Name] = m
	}
	for _, want := range base.Metrics {
		if want.Volatile {
			continue // wall-clock/environment content: speedups, worker counts
		}
		g, ok := got[want.Name]
		if !ok {
			t.Errorf("metric %s in baseline but missing from fresh run", want.Name)
			continue
		}
		diff := math.Abs(g.Value - want.Value)
		limit := benchRegressionTol * math.Abs(want.Value)
		if diff > limit {
			t.Errorf("metric %s drifted: baseline %g, got %g (|Δ| %g > %g)",
				want.Name, want.Value, g.Value, diff, limit)
		}
	}
}

// TestLargeDesignIdenticalAcrossWorkerCounts places the largeBench leg at
// Workers 4 and at Workers 1: the placements and canonical traces must be
// bit-identical, the determinism contract at 100k cells across the coarsen
// → place → interpolate → refine cycle. Behind the same gate as
// TestBenchRegression (about 35 s per run on 2 vCPUs):
//
//	BENCH_REGRESSION=1 go test -run TestLargeDesignIdenticalAcrossWorkerCounts .
func TestLargeDesignIdenticalAcrossWorkerCounts(t *testing.T) {
	if os.Getenv("BENCH_REGRESSION") != "1" {
		t.Skip("set BENCH_REGRESSION=1 to place the 100k-cell design twice")
	}
	var place, canon [2][]byte
	for i, workers := range []int{4, 1} {
		d := synth.MustGenerate(largeBench.design)
		var trace, out bytes.Buffer
		obs := telemetry.NewObserver(&trace)
		opt := core.Options{Mode: core.ModeOurs, Tech: core.AllTechniques(), Workers: workers, Observer: obs,
			Levels: largeBench.levels, MaxWLIters: largeBench.wlIters, MaxRouteIters: largeBench.rIters}
		if _, err := core.Place(d, opt); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if err := obs.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := designio.Write(&out, d); err != nil {
			t.Fatal(err)
		}
		c, err := telemetry.StripTimings(trace.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		place[i], canon[i] = out.Bytes(), c
	}
	if !bytes.Equal(place[0], place[1]) {
		t.Error("placements differ between Workers 4 and Workers 1")
	}
	if !bytes.Equal(canon[0], canon[1]) {
		t.Error("canonical traces differ between Workers 4 and Workers 1")
	}
}

func placeOnce(b *testing.B, design string, mode core.Mode, tech core.Techniques) *core.Result {
	b.Helper()
	d, err := synth.Generate(design)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Place(d, core.Options{Mode: mode, Tech: tech})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchMode(b *testing.B, mode core.Mode) {
	for i := 0; i < b.N; i++ {
		var drvs, drwl float64
		for _, name := range benchDesigns {
			res := placeOnce(b, name, mode, core.AllTechniques())
			drvs += float64(res.Metrics.DRVs)
			drwl += res.Metrics.DRWL
		}
		b.ReportMetric(drvs/float64(len(benchDesigns)), "DRVs/design")
		b.ReportMetric(drwl/float64(len(benchDesigns)), "DRWL/design")
	}
}

// BenchmarkTable1Xplace is the Table I "Xplace" column (wirelength only).
func BenchmarkTable1Xplace(b *testing.B) { benchMode(b, core.ModeWirelength) }

// BenchmarkTable1XplaceRoute is the Table I "Xplace-Route" column.
func BenchmarkTable1XplaceRoute(b *testing.B) { benchMode(b, core.ModeBaselineRoute) }

// BenchmarkTable1Ours is the Table I "Ours" column (full framework).
func BenchmarkTable1Ours(b *testing.B) { benchMode(b, core.ModeOurs) }

// BenchmarkTable2Ablation runs the four Table II rows on one congested
// design and reports the DRV count per configuration.
func BenchmarkTable2Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.RunTable2([]string{"fft_b"}, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Mode {
			case "baseline (Xplace-Route)":
				b.ReportMetric(float64(r.DRVs), "DRVs-baseline")
			case "MCI":
				b.ReportMetric(float64(r.DRVs), "DRVs-MCI")
			case "MCI+DC":
				b.ReportMetric(float64(r.DRVs), "DRVs-MCI+DC")
			case "MCI+DC+DPA":
				b.ReportMetric(float64(r.DRVs), "DRVs-full")
			}
		}
	}
}

// BenchmarkFig1Congestion measures the congestion decomposition of Fig. 1 on
// a placed design and reports the local/global split.
func BenchmarkFig1Congestion(b *testing.B) {
	d, err := GenerateBenchmark("fft_b")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Place(d, Options{Mode: ModeXplace}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var local, global int
	for i := 0; i < b.N; i++ {
		classes, _, _ := DecomposeCongestion(d, 0)
		local, global = 0, 0
		for _, c := range classes {
			switch c {
			case LocalCongestion:
				local++
			case GlobalCongestion:
				global++
			}
		}
	}
	b.ReportMetric(float64(local), "local-gcells")
	b.ReportMetric(float64(global), "global-gcells")
}

// BenchmarkFig3NetMoving measures one full congestion-gradient assembly
// (virtual cells + projected forces, Algorithms 1–2) on a routed design.
func BenchmarkFig3NetMoving(b *testing.B) {
	d, err := GenerateBenchmark("fft_b")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Place(d, Options{Mode: ModeXplace, SkipLegalize: true}); err != nil {
		b.Fatal(err)
	}
	grid := route.NewGrid(d, 64)
	res := route.NewRouter(d, grid).Route()
	m := congestion.New(d, grid)
	m.Update(res)
	grad := make([]float64, 2*len(d.Cells))
	b.ResetTimer()
	var virt int
	for i := 0; i < b.N; i++ {
		for j := range grad {
			grad[j] = 0
		}
		st := m.Gradients(grad)
		virt = st.VirtualCells
	}
	b.ReportMetric(float64(virt), "virtual-cells")
}

// BenchmarkFig4PGRails measures PG-rail selection (Fig. 4) on matrix_mult_a
// and reports the kept-rail count.
func BenchmarkFig4PGRails(b *testing.B) {
	d, err := GenerateBenchmark("matrix_mult_a")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var kept int
	for i := 0; i < b.N; i++ {
		kept = len(SelectPGRails(d))
	}
	b.ReportMetric(float64(kept), "rails-kept")
	b.ReportMetric(float64(len(d.Rails)), "rails-total")
}

// BenchmarkAblationMomentum sweeps Eq. 11's α (ablation A1 of DESIGN.md) and
// reports the DRV count at each setting.
func BenchmarkAblationMomentum(b *testing.B) {
	alphas := []struct {
		name string
		a    float64
	}{{"a0.2", 0.2}, {"a0.4", 0.4}, {"a0.6", 0.6}, {"a0.8", 0.8}}
	for _, alpha := range alphas {
		b.Run(alpha.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tech := core.AllTechniques()
				tech.MomentumAlpha = alpha.a
				res := placeOnce(b, "fft_b", core.ModeOurs, tech)
				b.ReportMetric(float64(res.Metrics.DRVs), "DRVs")
			}
		})
	}
}

// BenchmarkAblationLambda2 compares Eq. 10's adaptive λ₂ against fixed
// values (ablation A2).
func BenchmarkAblationLambda2(b *testing.B) {
	cases := []struct {
		name  string
		fixed float64
	}{{"adaptive", 0}, {"fixed0.5", 0.5}, {"fixed2", 2}}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tech := core.AllTechniques()
				tech.FixedLambda2 = c.fixed
				res := placeOnce(b, "fft_b", core.ModeOurs, tech)
				b.ReportMetric(float64(res.Metrics.DRVs), "DRVs")
			}
		})
	}
}

// BenchmarkAblationInflationScheme compares the paper's momentum inflation
// against the two prior-art schemes it criticizes in Sec. I: the monotone
// history scheme (NTUplace4dr/Xplace-Route style) and the memoryless
// present-congestion scheme (DREAMPlace/RePlAce style).
func BenchmarkAblationInflationScheme(b *testing.B) {
	for _, scheme := range []string{"momentum", "monotonic", "present"} {
		b.Run(scheme, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tech := core.AllTechniques()
				tech.InflationScheme = scheme
				res := placeOnce(b, "fft_b", core.ModeOurs, tech)
				b.ReportMetric(float64(res.Metrics.DRVs), "DRVs")
			}
		})
	}
}

// benchWorkerCounts are the per-kernel scaling points of the parallel
// benchmarks. On a single-core machine every count measures the same work
// plus goroutine overhead; compare w1 vs w4 ns/op on a multi-core runner
// (the CI bench job) for the real speedup.
var benchWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkParallelWirelength measures the net-parallel WA gradient on a
// superblue-family design at several worker counts (serial baseline = w1).
func BenchmarkParallelWirelength(b *testing.B) {
	d, err := synth.Generate("superblue11_a")
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			m := wirelength.New(d, 10)
			m.Workers = w
			grad := make([]float64, 2*len(d.Cells))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range grad {
					grad[j] = 0
				}
				m.EvaluateWithGrad(grad)
			}
		})
	}
}

// BenchmarkParallelDensity measures the bin-parallel rasterization + Poisson
// solve (density.Compute) at several worker counts.
func BenchmarkParallelDensity(b *testing.B) {
	d, err := synth.Generate("superblue11_a")
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			m := density.New(d, core.DefaultGridHint(len(d.Cells)))
			m.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Compute()
			}
		})
	}
}

// BenchmarkParallelPoisson measures the row/column-parallel spectral solver
// alone on a 256×256 grid at several worker counts.
func BenchmarkParallelPoisson(b *testing.B) {
	const n = 256
	rho := make([]float64, n*n)
	for i := range rho {
		rho[i] = math.Sin(float64(3*i)) + 0.25*math.Cos(float64(7*i))
	}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			s, err := poisson.NewSolver(n, n)
			if err != nil {
				b.Fatal(err)
			}
			s.Workers = w
			g := s.NewGrid()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Solve(rho, g)
			}
		})
	}
}

// BenchmarkAblationVirtualCell compares Eq. 8's max-congestion virtual-cell
// rule against the midpoint variant (ablation A3).
func BenchmarkAblationVirtualCell(b *testing.B) {
	cases := []struct {
		name     string
		midpoint bool
	}{{"maxcong", false}, {"midpoint", true}}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tech := core.AllTechniques()
				tech.VirtualAtMidpoint = c.midpoint
				res := placeOnce(b, "fft_b", core.ModeOurs, tech)
				b.ReportMetric(float64(res.Metrics.DRVs), "DRVs")
			}
		})
	}
}
