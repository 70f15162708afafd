package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/designio"
	"repro/internal/synth"
)

// workload is one set of inputs the benchmark runs. Every workload is a list
// of placement jobs (design × options); a pass places each design once. The
// service workload delivers its jobs through the placed daemon, the others
// place in process.
type workload struct {
	name string
	// designs are the catalog parameter sets the inputs are generated from.
	designs []synth.Params
	// opt is the placement configuration of every in-process pass (Workers
	// and the telemetry fields are set per pass).
	opt core.Options

	// service marks the daemon workload; jobs is then its closed-loop job
	// sequence (indices into designs), 40 jobs so that p75 has ten samples
	// beyond it.
	service bool
	jobs    []int

	// panel gives the quality metrics; it does not depend on the seed.
	panel panel
	// baseline is a further BENCH_baseline.json leg checked by a full set
	// at seed 0, in a child process of its own because it is large. Nil when
	// the workload has none.
	baseline *baselineLeg
}

// panel is a workload's fixed quality panel: catalog designs placed under
// one configuration, the same on every seed. Between the netlists of two
// seeds the placer's HPWL moves by up to 10%, so quality measured on the
// seeded designs could not resolve a 1% regression; on the panel it is
// exact, and any change to it is the program's.
type panel struct {
	designs []synth.Params
	opt     core.Options
	// checked marks a panel that is a leg of BENCH_baseline.json (the same
	// designs under the same options): every run checks it against the file.
	checked bool
}

type baselineLeg struct {
	designs []string
	opt     core.Options
}

// noPatience disables the "congestion no longer decreases" exit of the
// routability loop, so every design makes exactly MaxRouteIters router calls
// and a pass does the same work on every seed. With the default patience the
// call count ranges from 10 to 24 across seeds and so does the pass time;
// the panels keep the default, so convergence changes show there.
const noPatience = 1000

// The service jobs' iteration caps. Phase 1 of these designs needs more than
// 60 steps to reach the overflow stop, and at most five router calls end
// before the default patience can, so the jobs' work is fixed too.
const (
	serviceWLIters    = 60
	serviceRouteIters = 3
)

func catalog(name string) synth.Params {
	p, ok := synth.Catalog()[name]
	if !ok {
		panic("bench: unknown catalog design " + name)
	}
	return p
}

func catalogs(names ...string) []synth.Params {
	out := make([]synth.Params, len(names))
	for i, n := range names {
		out[i] = catalog(n)
	}
	return out
}

// multilevelDesign is the superblue1_big family scaled down: large
// enough that coarsening, interpolation and the finishing stages carry
// weight and the working set exceeds L2, small enough that a pass at one
// worker fits twice in a run.
func multilevelDesign(cells int) synth.Params {
	p := catalog("superblue1_big")
	p.Name = fmt.Sprintf("superblue1_%dk", cells/1000)
	p.NumCells = cells
	return p
}

// serviceJobs builds the service job sequence: every distinct spec repeated
// reps[i] times, in a seed-shuffled order.
func serviceJobs(seed int64, reps []int) []int {
	var seq []int
	for i, r := range reps {
		for k := 0; k < r; k++ {
			seq = append(seq, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// workloads returns the four workloads for a seed. mini selects the
// miniature versions the tests run: tiny designs and short loops.
func workloads(seed int64, mini bool) []*workload {
	// ours and xplace are the default configurations: every stop rule on.
	ours := core.Options{Mode: core.ModeOurs, Tech: core.AllTechniques()}
	xplace := core.Options{Mode: core.ModeWirelength, Tech: core.AllTechniques()}

	// The timed passes are short, so that a run takes many of them: the
	// yardstick leaves each job's time with an independent error of about
	// 10%, which only the number of jobs in a run averages out. Each panel is
	// one or two designs for the same reason.
	routDesigns := []string{"des_perf_1", "fft_b", "pci_bridge32_a"}
	rout := &workload{name: "routability", designs: seeded(seed, catalogs(routDesigns...))}
	rout.opt = ours
	rout.opt.MaxWLIters, rout.opt.WLOverflowStop = 80, -1
	rout.opt.MaxRouteIters = 6
	rout.opt.CongestionPatience = noPatience
	// des_perf_1 is the hottest design: at the default stop rules it leaves
	// phase 1 after about 110 steps and makes 20 router calls.
	rout.panel = panel{designs: catalogs("des_perf_1"), opt: ours, checked: true}
	rout.baseline = &baselineLeg{designs: routDesigns[1:], opt: ours}

	wlDesigns := []string{"superblue11_a", "matrix_mult_b"}
	wl := &workload{name: "wirelength", designs: seeded(seed, catalogs(wlDesigns...))}
	wl.opt = xplace
	wl.opt.MaxWLIters, wl.opt.WLOverflowStop = 80, -1
	wl.panel = panel{designs: catalogs("matrix_mult_b"), opt: xplace}

	ml := &workload{name: "multilevel", designs: seeded(seed, []synth.Params{multilevelDesign(10000)})}
	ml.opt = ours
	ml.opt.Levels = 3
	ml.opt.MaxWLIters = 40
	ml.opt.WLOverflowStop = -1
	ml.opt.MaxRouteIters = 2
	ml.opt.CongestionPatience = noPatience
	// At default stop rules the multilevel design takes longer than a run
	// measures; its panel keeps the workload's caps.
	ml.panel = panel{designs: []synth.Params{multilevelDesign(10000)}, opt: ml.opt}
	mlBase := ours
	mlBase.Levels, mlBase.MaxWLIters, mlBase.MaxRouteIters = 3, 120, 3
	ml.baseline = &baselineLeg{designs: []string{"superblue1_big"}, opt: mlBase}

	// The service specs: four small designs at seeds S and S+1000, so
	// per-job fixed costs weigh. The fft specs are submitted more often than
	// the tiny ones, so that p50 and p75 both fall among the fft jobs rather
	// than on the gap between the two job sizes.
	svc := &workload{name: "service", service: true}
	svc.opt = ours
	svc.opt.MaxWLIters = serviceWLIters
	svc.opt.MaxRouteIters = serviceRouteIters
	small := []string{"tiny_open", "tiny_hot", "fft_1", "fft_2"}
	svc.designs = append(seeded(seed, catalogs(small...)), seeded(seed+1000, catalogs(small...))...)
	svc.jobs = serviceJobs(seed, []int{4, 4, 6, 6, 4, 4, 6, 6})
	svc.panel = panel{designs: catalogs("tiny_hot", "fft_1"), opt: ours}

	if mini {
		rout.designs = seeded(seed, catalogs("tiny_hot"))
		rout.opt.MaxRouteIters = 2
		rout.panel.designs = catalogs("tiny_hot")
		rout.baseline = nil
		wl.designs = seeded(seed, catalogs("tiny_open"))
		wl.opt.MaxWLIters = 40
		wl.panel.designs = catalogs("tiny_open")
		ml.designs = seeded(seed, catalogs("tiny_hot"))
		ml.opt.Levels, ml.opt.MaxWLIters, ml.opt.MaxRouteIters = 2, 30, 1
		ml.panel = panel{designs: catalogs("tiny_hot"), opt: ml.opt}
		ml.baseline = nil
		svc.designs = seeded(seed, catalogs("tiny_open", "tiny_hot"))
		svc.jobs = []int{0, 1}
		svc.panel.designs = catalogs("tiny_open")
	}
	return []*workload{rout, wl, ml, svc}
}

func seeded(seed int64, ps []synth.Params) []synth.Params {
	for i := range ps {
		ps[i].Name = seededName(ps[i].Name, seed)
	}
	return ps
}

// seededName gives seed S its own netlist of the same family: synth derives
// its random stream from the design name, so suffixing "~s<S>" changes the
// hypergraph but none of the family parameters. Seed 0 keeps the name.
func seededName(name string, seed int64) string {
	if seed == 0 {
		return name
	}
	return fmt.Sprintf("%s~s%d", name, seed)
}

func findWorkload(name string, seed int64, mini bool) (*workload, error) {
	for _, w := range workloads(seed, mini) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads(0, false) {
		names = append(names, w.name)
	}
	return names
}

// input is one generated design as the program receives it: designio text.
type input struct {
	name    string
	payload []byte
}

// generate builds a workload's inputs: each design synthesized and round-
// tripped through designio (the format a user hands the placer), timed as
// one set-up sample.
func generate(params []synth.Params) ([]input, time.Duration, error) {
	start := time.Now()
	ins := make([]input, 0, len(params))
	for _, p := range params {
		d, err := synth.FromParams(p)
		if err != nil {
			return nil, 0, err
		}
		var buf bytes.Buffer
		if err := designio.Write(&buf, d); err != nil {
			return nil, 0, fmt.Errorf("write %s: %w", p.Name, err)
		}
		if _, err := designio.Read(bytes.NewReader(buf.Bytes())); err != nil {
			return nil, 0, fmt.Errorf("read back %s: %w", p.Name, err)
		}
		ins = append(ins, input{name: p.Name, payload: buf.Bytes()})
	}
	return ins, time.Since(start), nil
}
