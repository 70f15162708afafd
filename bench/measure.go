package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/jobs"
)

// setupReps is how many times a run sets up its inputs; setup_s is the
// median.
const setupReps = 5

// measure runs one workload in this process and fills r. trace 0 measures
// the end-to-end metrics: the quality panel placed once at N workers, then
// untraced passes alternating one and N workers. trace 1 places the panel
// traced, for the registry counters, then alternates untraced and traced
// passes at one worker and derives the per-layer metrics. Either way every
// operation is checked, every timed one is bracketed by the yardstick and
// reported scaled, and everything but set-up, the kernel replays and the job
// leg happens within the measuring time.
func measure(ctx context.Context, w *workload, cfg config, scratch string, log io.Writer, r *workloadResult) error {
	n := runtime.GOMAXPROCS(0)
	m := r.Metrics
	y, reps := newYardstick(yardRounds), setupReps
	if cfg.mini {
		// The miniature runs check the plumbing, not the host's speed.
		y, reps = newYardstick(1), 1
	}

	panelIns, _, err := generate(w.panel.designs)
	if err != nil {
		return err
	}

	// Set-up: generate the inputs reps times; the service also starts its
	// daemon each time and keeps the last one.
	var ins []input
	setup := make([]time.Duration, reps)
	var dmn *daemon
	defer func() {
		if dmn != nil {
			dmn.stop()
		}
	}()
	setupScales := y.bracket(1, reps, func(rep int) {
		if err != nil {
			return
		}
		if ins, setup[rep], err = generate(w.designs); err != nil || !w.service {
			return
		}
		if dmn != nil {
			dmn.stop()
		}
		var dt time.Duration
		dmn, dt, err = startDaemon(cfg.placed, scratch, n)
		setup[rep] += dt
	})
	if err != nil {
		return err
	}
	m["setup_s"] = timing("s", setup, setupScales)
	start := time.Now()

	// The service's loop runs its job sequence once, whatever the time: the
	// latency percentiles then always fall on the same job mix. The panel and
	// its in-process reference passes take the rest of the measuring time.
	var loop []jobOutcome
	var loopWall float64
	if w.service {
		specs := make([]jobs.Spec, len(ins))
		for i, in := range ins {
			specs[i] = specFor(in, w.opt)
		}
		loop, loopWall = jobRounds(ctx, y, dmn.base, specs, w.jobs, n)
		if err := dmn.stop(); err != nil {
			r.check(false, "placed did not drain cleanly: %v", err)
		}
		fmt.Fprintf(log, "%s: %d jobs in %.2f s (scaled)\n", w.name, len(loop), loopWall)
	}

	panelJobs := pass(y, panelIns, w.panel.opt, n, cfg.trace == 1, scratch)
	r.checkJobs(panelJobs, map[string][32]byte{}, "panel")
	if w.panel.checked && cfg.baseline != "" {
		r.checkBaseline(panelJobs, cfg.baseline)
	}
	fmt.Fprintf(log, "%s: panel %.3f s\n", w.name, rawPassSeconds(panelJobs))

	ref := map[string][32]byte{}
	var w1, wN, traced [][]job
	passSchedule(start.Add(cfg.seconds), func(second bool) time.Duration {
		t := time.Now()
		var js []job
		kind := "w1"
		switch {
		case cfg.trace == 1 && second:
			kind = "traced"
			js = pass(y, ins, w.opt, 1, true, scratch)
			traced = append(traced, js)
		case !second || cfg.trace == 1:
			js = pass(y, ins, w.opt, 1, false, scratch)
			w1 = append(w1, js)
		default:
			kind = "wN"
			js = pass(y, ins, w.opt, n, false, scratch)
			wN = append(wN, js)
		}
		r.checkJobs(js, ref, kind+" pass")
		r.Passes[kind]++
		fmt.Fprintf(log, "%s: %s pass %.3f s, %.3f s scaled\n", w.name, kind, rawPassSeconds(js), passSeconds(js))
		return time.Since(t)
	})
	if w.service {
		for _, o := range loop {
			name := ins[o.spec].name
			r.check(o.err == nil && o.hash == ref[name], "service job %s: %v (placement matches the in-process one: %t)",
				name, o.err, o.hash == ref[name])
		}
	}
	if cfg.trace == 1 {
		breakdown(traced, m)
		panelCounters(panelJobs, m)
		m["telemetry.overhead_frac"] = newMetric("ratio", median(passTimes(traced))/median(passTimes(w1))-1)
		if err := kernelMetrics(y, traced[len(traced)-1], w.opt, n, m); err != nil {
			return err
		}
		if !w.service {
			var err error
			if loop, err = jobLeg(ctx, y, w, ins, cfg.placed, scratch, n, r); err != nil {
				return err
			}
		}
		jobMetrics(loop, m)
		return nil
	}

	m["place_s.w1"] = newTiming("s", passTimes(w1), rawPassTimes(w1))
	m["place_s.wN"] = newTiming("s", passTimes(wN), rawPassTimes(wN))
	hpwl, drwl, drvs := qualityMetrics(panelJobs)
	m["hpwl"] = newMetric("dbu", hpwl)
	m["drwl"] = newMetric("dbu", drwl)
	m["drvs"] = newMetric("count", drvs)
	if w.service {
		var lat, raw []float64
		for _, o := range loop {
			if o.err == nil {
				lat = append(lat, scaled(o.latency, o.scale))
				raw = append(raw, o.latency.Seconds())
			}
		}
		_, p50, p75 := quartiles(lat)
		_, rawP50, rawP75 := quartiles(raw)
		m["job_latency_s.p50"] = newTiming("s", []float64{p50}, []float64{rawP50})
		m["job_latency_s.p75"] = newTiming("s", []float64{p75}, []float64{rawP75})
		m["jobs_per_s"] = newMetric("1/s", float64(len(lat))/loopWall)
		r.JobLatencies = lat
		return nil
	}
	// In process, a job is one design of a pass at N workers: parse, place,
	// serialize. Each wN pass gives one sample of each statistic.
	var p50s, p75s, rates []float64
	for _, js := range wN {
		var lat []float64
		var total float64
		for _, j := range js {
			l := scaled(j.latency, j.scale)
			lat = append(lat, l)
			total += l
		}
		_, p50, p75 := quartiles(lat)
		p50s, p75s = append(p50s, p50), append(p75s, p75)
		rates = append(rates, float64(len(js))/total)
	}
	m["job_latency_s.p50"] = newMetric("s", p50s...)
	m["job_latency_s.p75"] = newMetric("s", p75s...)
	m["jobs_per_s"] = newMetric("1/s", rates...)
	return nil
}

// timing is a metric of durations, each scaled by its yardstick scale.
func timing(unit string, ds []time.Duration, scales []float64) metric {
	s, raw := make([]float64, len(ds)), make([]float64, len(ds))
	for i, d := range ds {
		s[i], raw[i] = scaled(d, scales[i]), d.Seconds()
	}
	return newTiming(unit, s, raw)
}

func passTimes(passes [][]job) []float64 {
	out := make([]float64, len(passes))
	for i, js := range passes {
		out[i] = passSeconds(js)
	}
	return out
}

func rawPassTimes(passes [][]job) []float64 {
	out := make([]float64, len(passes))
	for i, js := range passes {
		out[i] = rawPassSeconds(js)
	}
	return out
}

// jobLeg submits each design of a placement workload once to a fresh placed
// daemon, with N concurrent clients, to price what the service layer adds to
// this workload's jobs. A spec carries no routability patience or overflow
// stop, so the daemon's placements are not compared with the in-process
// ones; each job must end done.
func jobLeg(ctx context.Context, y *yardstick, w *workload, ins []input, placed, scratch string, n int, r *workloadResult) ([]jobOutcome, error) {
	dmn, _, err := startDaemon(placed, scratch, n)
	if err != nil {
		return nil, err
	}
	defer dmn.stop()
	specs := make([]jobs.Spec, len(ins))
	seq := make([]int, len(ins))
	for i, in := range ins {
		specs[i] = specFor(in, w.opt)
		seq[i] = i
	}
	outs, _ := jobRounds(ctx, y, dmn.base, specs, seq, n)
	if err := dmn.stop(); err != nil {
		r.check(false, "placed did not drain cleanly: %v", err)
	}
	for _, o := range outs {
		r.check(o.err == nil, "job leg %s: %v", ins[o.spec].name, o.err)
	}
	return outs, nil
}
