package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/designio"
	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// job is the outcome of one in-process placement job: parse the input, place
// it, serialize the placement — what a user of the placer CLI waits for.
type job struct {
	name    string
	place   time.Duration // the core.Place call alone
	latency time.Duration // parse + place + serialize
	hash    [32]byte      // sha256 of the designio placement
	scale   float64       // the yardstick's scale for this job's times
	res     *core.Result
	design  *netlist.Design // traced jobs only: the placed design, for replays
	err     error           // placement or serialization failure
	legal   error           // legalize.CheckLegal on the final placement

	// Set on traced jobs only.
	trace *capture
}

// capture is what a traced job records: the in-memory observer (stage
// timings and counters) and, through Options.BoundaryHook, the cell positions
// and objective-evaluation count at the end of level-0 phase 1 — the state
// the kernel replays start from.
type capture struct {
	obs     *telemetry.Observer
	pos     []float64
	p1Evals int64
}

// placeJob runs one in-process job at the given worker count. traced attaches
// an observer and the end-of-phase-1 capture; scratch is a directory for the
// checkpoint path the boundary hook requires (the hook only ever returns
// BoundaryContinue, so nothing is written there).
func placeJob(in input, opt core.Options, workers int, traced bool, scratch string) job {
	j := job{name: in.name}
	opt.Workers = workers
	start := time.Now()
	d, err := designio.Read(bytes.NewReader(in.payload))
	if err != nil {
		j.err = err
		return j
	}
	if traced {
		c := &capture{obs: telemetry.NewObserver(nil)}
		evals := c.obs.Counter("objective.evals")
		opt.Observer = c.obs
		opt.CheckpointPath = scratch + "/capture.ckpt"
		opt.BoundaryHook = func(point string) core.BoundaryAction {
			if point == "wirelength" {
				c.pos = d.SnapshotPositions()
				c.p1Evals = evals.Value()
			}
			return core.BoundaryContinue
		}
		j.trace = c
	}
	t := time.Now()
	j.res, j.err = core.Place(d, opt)
	j.place = time.Since(t)
	if j.err != nil {
		return j
	}
	var buf bytes.Buffer
	if j.err = designio.Write(&buf, d); j.err != nil {
		return j
	}
	j.latency = time.Since(start)
	j.hash = sha256.Sum256(buf.Bytes())
	if traced {
		j.design = d
	}
	j.legal = legalize.CheckLegal(d)
	return j
}

// pass places every input once, each job bracketed by the yardstick at the
// pass's worker count. The heap is collected first so one pass's garbage is
// not charged to the next.
func pass(y *yardstick, ins []input, opt core.Options, workers int, traced bool, scratch string) []job {
	runtime.GC()
	out := make([]job, len(ins))
	scales := y.bracket(workers, len(ins), func(i int) {
		out[i] = placeJob(ins[i], opt, workers, traced, scratch)
	})
	for i := range out {
		out[i].scale = scales[i]
	}
	return out
}

// passSeconds is the scaled time of a pass: its core.Place calls.
func passSeconds(js []job) float64 {
	var s float64
	for _, j := range js {
		s += scaled(j.place, j.scale)
	}
	return s
}

// rawPassSeconds is the same pass as timed, unscaled.
func rawPassSeconds(js []job) float64 {
	var s time.Duration
	for _, j := range js {
		s += j.place
	}
	return s.Seconds()
}

// passSchedule alternates two kinds of pass (w1/wN, or untraced/traced) until
// the next pass would end past the deadline, always running at least one of
// each. Passes of both kinds see the same host drift.
func passSchedule(deadline time.Time, run func(second bool) time.Duration) {
	last := [2]time.Duration{}
	for i := 0; ; i++ {
		k := i % 2
		if i >= 2 && time.Now().Add(last[k]).After(deadline) {
			return
		}
		last[k] = run(k == 1)
	}
}

// checkJobs books one attempted operation per job: it must have placed
// without error, legally, and byte-identically to the reference placement
// of the same design (the first pass's, or an in-process reference for a
// daemon job). A missing reference is recorded from the job itself.
func (r *workloadResult) checkJobs(js []job, ref map[string][32]byte, what string) {
	for _, j := range js {
		switch {
		case j.err != nil:
			r.check(false, "%s %s: %v", what, j.name, j.err)
		case j.legal != nil:
			r.check(false, "%s %s: illegal placement: %v", what, j.name, j.legal)
		default:
			want, ok := ref[j.name]
			if !ok {
				ref[j.name] = j.hash
				want = j.hash
			}
			r.check(j.hash == want, "%s %s: placement differs from the reference placement", what, j.name)
		}
	}
}

// qualityMetrics reports the geometric means of the final HPWL, the routed
// wirelength and the DRV count over a pass's designs.
func qualityMetrics(js []job) (hpwl, drwl, drvs float64) {
	var h, w, v []float64
	for _, j := range js {
		if j.res == nil {
			continue
		}
		h = append(h, j.res.HPWLFinal)
		w = append(w, j.res.Metrics.DRWL)
		v = append(v, float64(j.res.Metrics.DRVs))
	}
	return geomean(h), geomean(w), geomean(v)
}

// baselineTolerance is BENCH_baseline.json's own regression tolerance (see
// TestBenchRegression): the placer is deterministic, the slack only absorbs
// libm differences across platforms.
const baselineTolerance = 0.02

// checkBaseline books one operation per job: its HPWL, DRWL and DRV count
// must each lie within BENCH_baseline.json's tolerance of the file's
// bench.<design>.* entries. The jobs are catalog designs placed under the
// configuration the file was recorded with.
func (r *workloadResult) checkBaseline(js []job, path string) {
	want, err := readBaseline(path)
	if err != nil {
		r.check(false, "baseline: %v", err)
		return
	}
	for _, j := range js {
		name := j.name
		if j.err != nil {
			r.check(false, "baseline %s: %v", name, j.err)
			continue
		}
		got := map[string]float64{
			"hpwl": j.res.HPWLFinal,
			"drwl": j.res.Metrics.DRWL,
			"drvs": float64(j.res.Metrics.DRVs),
		}
		var bad []string
		for _, m := range []string{"hpwl", "drwl", "drvs"} {
			key := fmt.Sprintf("bench.%s.%s", name, m)
			w, ok := want[key]
			if !ok {
				bad = append(bad, key+" missing from the baseline")
			} else if math.Abs(got[m]-w) > baselineTolerance*math.Abs(w) {
				bad = append(bad, fmt.Sprintf("%s %g, baseline %g", m, got[m], w))
			}
		}
		r.check(len(bad) == 0, "baseline %s: %v", name, bad)
	}
}

func readBaseline(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := telemetry.ReadBaseline(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64, len(b.Metrics))
	for _, m := range b.Metrics {
		out[m.Name] = m.Value
	}
	return out, nil
}
