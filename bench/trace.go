package main

// The per-layer breakdown, measured from outside the program in two ways:
// reading what core.Place exposes (the traced pass's stage timings and
// registry counters), and replaying each kernel's public function on the
// cell positions a traced job captured at the end of phase 1.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/netlist"
	"repro/internal/poisson"
	"repro/internal/route"
	"repro/internal/wirelength"
)

// coreParts maps each core phase to the pipeline spans that make it up. Each
// span named here is a leaf of the core pipeline — its children, if any, are
// the layer's own internals (route > route.round, eval > eval.score) — so the
// parts never overlap. What they leave of the traced wall is the self time of
// the container spans (place, phase2_routability, route_iter) plus the
// multilevel coarsening and interpolation: core.unattributed_frac.
var coreParts = []struct {
	metric string
	spans  []string
}{
	{"core.setup_frac", []string{"setup"}},
	{"core.phase1_frac", []string{"phase1_wirelength"}},
	{"core.nesterov_frac", []string{"nesterov"}},
	{"core.route_frac", []string{"route"}},
	{"core.congestion_update_frac", []string{"congestion_update"}},
	{"core.inflate_pg_frac", []string{"inflate", "pg_density"}},
	{"core.legalize_frac", []string{"legalize"}},
	{"core.detailed_frac", []string{"detailed"}},
	{"core.eval_frac", []string{"eval"}},
}

// counters maps per-layer count metrics onto the registry counters they sum.
var counters = []struct{ metric, counter string }{
	{"nesterov.evals", "objective.evals"},
	{"poisson.solves", "poisson.solves"},
	{"route.calls", "route.calls"},
	{"route.segments", "route.segments"},
	{"route.ripup_rounds", "route.ripup_rounds"},
	{"congestion.updates", "congestion.updates"},
}

// isCoarseRoot reports whether a span is a coarse multilevel level's root,
// "L<k>/place"; everything a coarse level does nests inside it.
func isCoarseRoot(name string) bool {
	rest, ok := strings.CutPrefix(name, "L")
	if !ok {
		return false
	}
	lvl, span, ok := strings.Cut(rest, "/")
	if !ok || span != "place" {
		return false
	}
	_, err := strconv.Atoi(lvl)
	return err == nil
}

func stageTotals(j job) map[string]float64 {
	out := map[string]float64{}
	for _, st := range j.trace.obs.Tracer.StageTimings() {
		out[st.Name] = st.Total.Seconds()
	}
	return out
}

func counter(j job, name string) int64 {
	return j.trace.obs.Metrics.Counter(name).Value()
}

// breakdown reports the core phases as shares of the traced wall, summed
// over every traced pass.
func breakdown(traced [][]job, m map[string]metric) {
	var wall, coarse float64
	parts := make([]float64, len(coreParts))
	var walls []float64
	for _, js := range traced {
		walls = append(walls, passSeconds(js))
		for _, j := range js {
			wall += j.place.Seconds()
			tot := stageTotals(j)
			for i, p := range coreParts {
				for _, s := range p.spans {
					parts[i] += tot[s]
				}
			}
			for name, t := range tot {
				if isCoarseRoot(name) {
					coarse += t
				}
			}
		}
	}
	m["core.traced_wall_s"] = newMetric("s", walls...)
	rest := wall - coarse
	for i, p := range coreParts {
		m[p.metric] = newMetric("ratio", parts[i]/wall)
		rest -= parts[i]
	}
	m["core.coarse_frac"] = newMetric("ratio", coarse/wall)
	m["core.unattributed_frac"] = newMetric("ratio", rest/wall)
}

// panelCounters reports the registry counters of the traced panel placement.
// The panel keeps the default stop rules, so a change that converges in
// fewer steps or router calls moves them; they repeat exactly from run to
// run.
func panelCounters(panel []job, m map[string]metric) {
	for _, c := range counters {
		var n int64
		for _, j := range panel {
			n += counter(j, c.counter)
		}
		m[c.metric] = newMetric("count", float64(n))
	}
	// Useful outcomes over attempts: a net whose decomposition the router
	// could reuse, out of every net it looked at.
	var hits, dirty int64
	for _, j := range panel {
		hits += counter(j, "route.decompose_cache_hits")
		dirty += counter(j, "route.dirty_nets")
	}
	frac := 0.0
	if hits+dirty > 0 {
		frac = float64(hits) / float64(hits+dirty)
	}
	m["route.cache_hit_frac"] = newMetric("ratio", frac)
}

// kernelCost is the median wall time of one call to each kernel, keyed by
// the metric that reports it.
type kernelCost map[string]time.Duration

// objective is the kernel cost of one phase-1 objective evaluation; phase 2
// adds the congestion gradient.
func (k kernelCost) objective() time.Duration {
	return k["wirelength.grad_us"] + k["density.compute_us"] + k["density.grad_us"]
}

const (
	replayCalls  = 20
	replayBudget = time.Second
)

// replay times each kernel's public function on d as placed at the end of
// phase 1, on the design's own grid, with fresh models built the way core
// builds them, once per worker count. The counts alternate call by call, so
// host drift hits them alike. Fillers sit at their initial positions: the
// placer keeps the converged ones inside its density model. full adds the
// standalone Poisson solve and the router's steady-state call.
func replay(d *netlist.Design, grid int, workers []int, full bool) ([]kernelCost, error) {
	dens := density.New(d, grid)
	wl := wirelength.New(d, dens.BinW()*0.5*10)
	g := route.NewGrid(d, grid)
	rtr := route.NewRouter(d, g)
	cm := congestion.New(d, g)
	s, err := poisson.NewSolver(dens.NX, dens.NY)
	if err != nil {
		return nil, fmt.Errorf("poisson solver for %s: %w", d.Name, err)
	}
	costs := make([]kernelCost, len(workers))
	for i := range costs {
		costs[i] = kernelCost{}
	}
	timeKernel := func(metric string, prep, fn func()) {
		ds := timeCalls(replayCalls, replayBudget, len(workers), prep, func(i int) {
			w := workers[i]
			dens.Workers, wl.Workers, rtr.Workers, cm.Workers, s.Workers = w, w, w, w, w
			fn()
		})
		for i, t := range ds {
			costs[i][metric] = t
		}
	}

	grad := make([]float64, 2*len(d.Cells))
	fgrad := make([]float64, 2*dens.NumFillers())
	zeroGrad := func() { clear(grad) }
	timeKernel("wirelength.grad_us", zeroGrad, func() { wl.EvaluateWithGrad(grad) })
	timeKernel("density.compute_us", nil, dens.Compute)
	timeKernel("density.grad_us", func() { clear(grad); clear(fgrad) }, func() {
		dens.AccumCellGrad(grad, 1)
		dens.AccumFillerGrad(fgrad, 1)
	})
	var res *route.Result
	timeKernel("route.cold_ms", rtr.Invalidate, func() { res = rtr.Route() })
	timeKernel("congestion.update_ms", nil, func() { cm.Update(res) })
	timeKernel("congestion.grad_us", zeroGrad, func() { cm.Gradients(grad) })
	if full {
		timeKernel("route.steady_ms", nil, func() { rtr.Route() })
		rho, out := dens.CellDensityMap(), s.NewGrid()
		timeKernel("poisson.solve_us", nil, func() { s.Solve(rho, out) })
	}
	return costs, nil
}

func gridOf(d *netlist.Design, opt core.Options) int {
	if opt.GridHint > 0 {
		return opt.GridHint
	}
	return core.DefaultGridHint(len(d.Cells))
}

// speedups name the kernel each replay speedup compares.
var speedups = []struct{ metric, kernel string }{
	{"wirelength.speedup", "wirelength.grad_us"},
	{"density.speedup", "density.compute_us"},
	{"poisson.speedup", "poisson.solve_us"},
	{"route.speedup", "route.cold_ms"},
}

// kernelMetrics replays the kernels of every job of the last traced pass at
// one worker, and those of its largest design at one and N workers. It
// reports the largest design's per-call costs and speedups, the coarsening
// time, and objective.explained_frac: Σ evaluations × replayed kernel cost
// over the level-0 phase-1 and Nesterov span time. The remainder of that
// span time is the combine, preconditioning and Nesterov vector work. Each
// replay is bracketed by the yardstick like a job, and costs and span times
// are compared scaled, so the host's drift between the traced pass and the
// replays does not enter the fraction.
func kernelMetrics(y *yardstick, all []job, opt core.Options, n int, m map[string]metric) error {
	var js []job
	for _, j := range all {
		if j.design != nil && j.trace.pos != nil {
			js = append(js, j)
		}
	}
	if len(js) == 0 {
		return fmt.Errorf("no traced job captured its phase-1 positions")
	}
	largest := 0
	for i, j := range js {
		if len(j.design.Cells) > len(js[largest].design.Cells) {
			largest = i
		}
	}
	var explained, spent float64
	var big []kernelCost
	var bigScale float64
	for i, j := range js {
		d := j.design
		d.RestorePositions(j.trace.pos)
		workers := []int{1}
		if i == largest {
			workers = []int{1, n}
		}
		var ks []kernelCost
		var err error
		scale := y.bracket(1, 1, func(int) { ks, err = replay(d, gridOf(d, opt), workers, i == largest) })[0]
		if err != nil {
			return err
		}
		if i == largest {
			big, bigScale = ks, scale
		}
		k := ks[0]
		p1 := float64(j.res.WLIters)
		p2 := float64(counter(j, "objective.evals") - j.trace.p1Evals)
		explained += scale * (p1*k.objective().Seconds() + p2*(k.objective()+k["congestion.grad_us"]).Seconds())
		tot := stageTotals(j)
		spent += j.scale * (tot["phase1_wirelength"] + tot["nesterov"])
	}
	for name, t := range big[0] {
		t = time.Duration(float64(t) * bigScale)
		if strings.HasSuffix(name, "_ms") {
			m[name] = newMetric("ms", ms(t))
		} else {
			m[name] = newMetric("us", us(t))
		}
	}
	for _, s := range speedups {
		m[s.metric] = newMetric("x", float64(big[0][s.kernel])/float64(big[1][s.kernel]))
	}
	m["objective.explained_frac"] = newMetric("ratio", explained/spent)

	d := js[largest].design
	var herr error
	var hier time.Duration
	scale := y.bracket(1, 1, func(int) {
		hier = timeCalls(5, replayBudget, 1, nil, func(int) {
			if _, err := cluster.Hierarchy(d, 3, 16); err != nil {
				herr = err
			}
		})[0]
	})[0]
	if herr != nil {
		return fmt.Errorf("cluster hierarchy of %s: %w", d.Name, herr)
	}
	m["cluster.hierarchy_ms"] = newMetric("ms", ms(hier)*scale)
	return nil
}
