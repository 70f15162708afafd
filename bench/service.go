package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
)

// daemon is a running placed process serving on a loopback port.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	stateDir string
	logDone  chan struct{}
	stopped  bool
	stopErr  error
}

// startDaemon launches placed with a fresh state directory under scratch and
// returns once /readyz answers 200, with the time that took. capacity is its
// worker-slot pool; rate limiting, the queue cap and the disk guard are off,
// so no job of the closed loop is shed.
func startDaemon(placed, scratch string, capacity int) (*daemon, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(scratch, "placed-")
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(placed, "-addr", "127.0.0.1:0", "-state", dir,
		"-capacity", strconv.Itoa(capacity), "-rate", "-1", "-max-queued", "-1", "-min-free-mb", "-1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("start placed: %w", err)
	}
	d := &daemon{cmd: cmd, stateDir: dir, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "placed listening on http://"); ok {
				a, _, _ = strings.Cut(a, "/")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logDone:
		d.stop()
		return nil, 0, errors.New("placed exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, errors.New("placed did not report its address")
	}
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("placed never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (every job has ended by then, so it
// exits at once), kills it if it lingers, waits for it and removes its state.
// Stopping twice returns the first result.
func (d *daemon) stop() error {
	if d.stopped {
		return d.stopErr
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		err = <-exited
	}
	<-d.logDone
	os.RemoveAll(d.stateDir)
	d.stopErr = err
	return err
}

// jobOutcome is one job as a client of the daemon sees it.
type jobOutcome struct {
	spec       int           // index into the workload's inputs
	submit     time.Duration // POST /jobs round trip
	start      time.Duration // submit → first trace event over SSE
	latency    time.Duration // submit → SSE eof
	traceBytes int
	view       jobs.JobView
	hash       [32]byte // sha256 of the downloaded placement
	shed       bool     // refused with 503
	scale      float64  // the yardstick's scale for the job's round
	err        error
}

// jobTimeout bounds one job from submission to its placement download.
const jobTimeout = 150 * time.Second

// runJob submits spec, follows its event stream to eof, then fetches the
// job's view and placement.
func runJob(ctx context.Context, c *http.Client, base string, spec jobs.Spec) jobOutcome {
	var o jobOutcome
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	var sub struct{ ID string }
	status, err := call(ctx, c, http.MethodPost, base+"/jobs", body, &sub)
	o.submit = time.Since(t0)
	switch {
	case err != nil:
		o.err = err
		return o
	case status == http.StatusServiceUnavailable:
		o.shed = true
		o.err = errors.New("submission shed with 503")
		return o
	case status != http.StatusAccepted:
		o.err = fmt.Errorf("submit: HTTP %d", status)
		return o
	}
	jobURL := base + "/jobs/" + sub.ID
	if o.traceBytes, o.start, err = followEvents(ctx, c, jobURL+"/events", t0); err != nil {
		o.err = err
		return o
	}
	o.latency = time.Since(t0)
	if _, err := call(ctx, c, http.MethodGet, jobURL, nil, &o.view); err != nil {
		o.err = err
		return o
	}
	if o.view.State != jobs.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", sub.ID, o.view.State, o.view.Error)
		return o
	}
	var placement []byte
	if _, err := call(ctx, c, http.MethodGet, jobURL+"/placement", nil, &placement); err != nil {
		o.err = err
		return o
	}
	o.hash = sha256.Sum256(placement)
	return o
}

// call performs one request. A 2xx body is decoded into out as JSON, or
// copied raw when out is a *[]byte.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// followEvents reads a job's SSE stream until its eof event and returns the
// trace bytes received and when the first one arrived, relative to t0.
func followEvents(ctx context.Context, c *http.Client, url string, t0 time.Time) (int, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var n int
	var first time.Duration
	for {
		line, err := br.ReadBytes('\n')
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			if first == 0 {
				first = time.Since(t0)
			}
			n += len(data)
		}
		if bytes.HasPrefix(line, []byte("event: eof")) {
			// The eof event's own data line ("{}") follows; it is not trace.
			io.Copy(io.Discard, br)
			return n, first, nil
		}
		if err != nil {
			return n, first, fmt.Errorf("events stream ended before eof: %w", err)
		}
	}
}

// jobRounds drives the daemon with clients concurrent clients in lockstep
// rounds, a closed loop: in each round every client sends the next job of seq
// (indices into specs) and waits for it to end, and the next round starts
// once all have. The yardstick runs at clients goroutines between rounds,
// while the daemon is idle, so each outcome carries its round's scale. It
// returns the outcomes in the order of seq and the scaled time of all rounds.
func jobRounds(ctx context.Context, y *yardstick, base string, specs []jobs.Spec, seq []int, clients int) ([]jobOutcome, float64) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	out := make([]jobOutcome, len(seq))
	walls := make([]time.Duration, (len(seq)+clients-1)/clients)
	scales := y.bracket(clients, len(walls), func(r int) {
		start := time.Now()
		var wg sync.WaitGroup
		for k := r * clients; k < min((r+1)*clients, len(seq)); k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				out[k] = runJob(ctx, client, base, specs[seq[k]])
				out[k].spec = seq[k]
			}(k)
		}
		wg.Wait()
		walls[r] = time.Since(start)
	})
	var wall float64
	for k := range out {
		out[k].scale = scales[k/clients]
	}
	for r, d := range walls {
		wall += scaled(d, scales[r])
	}
	return out, wall
}

// jobMetrics reports the service layer's per-job costs: submission round
// trip, time to the first streamed trace event, what the daemon adds on top
// of the worker's own placement and evaluation time, trace volume, and the
// counts that should stay 0 (restarts, sheds, segments beyond the first).
func jobMetrics(outs []jobOutcome, m map[string]metric) {
	var submit, start, overhead, kb []float64
	var restarts, shed, extra int
	for _, o := range outs {
		submit = append(submit, ms(o.submit))
		if o.shed {
			shed++
		}
		if o.err != nil {
			continue
		}
		start = append(start, o.start.Seconds())
		kb = append(kb, float64(o.traceBytes)/1024)
		restarts += o.view.Restarts
		extra += o.view.Segments - 1
		if s := o.view.Summary; s != nil {
			overhead = append(overhead, o.latency.Seconds()-s.PlaceSeconds-s.RouteSeconds)
		}
	}
	m["jobs.submit_ms"] = newMetric("ms", median(submit))
	m["jobs.start_s"] = newMetric("s", median(start))
	m["jobs.overhead_s"] = newMetric("s", median(overhead))
	m["jobs.trace_kb"] = newMetric("KiB", mean(kb))
	m["jobs.restarts"] = newMetric("count", float64(restarts))
	m["jobs.shed"] = newMetric("count", float64(shed))
	m["jobs.extra_segments"] = newMetric("count", float64(extra))
}

// specFor is the job spec of one input under a workload's options, at one
// worker. A spec carries the mode, the iteration caps and the level count;
// the daemon runs every other option at its default.
func specFor(in input, opt core.Options) jobs.Spec {
	return jobs.Spec{
		Payload:       string(in.payload),
		Mode:          opt.Mode.String(),
		Workers:       1,
		MaxWLIters:    opt.MaxWLIters,
		MaxRouteIters: opt.MaxRouteIters,
		Levels:        opt.Levels,
	}
}
