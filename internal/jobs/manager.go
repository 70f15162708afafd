package jobs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Config parameterizes a Manager.
type Config struct {
	// Dir is the state directory. Every job lives in Dir/<id>/ (job.json,
	// trace.jsonl, run.ckpt, out.place); a Manager opened over an existing
	// directory adopts the jobs it finds there.
	Dir string
	// Capacity is the worker-slot pool shared by all running jobs
	// (default 1). A job occupies its (clamped) Workers budget while running.
	Capacity int
	// Quantum is the fair-share lease: after this many stage boundaries a
	// running job yields to an equal-or-higher-priority waiter (default 4).
	Quantum int
	// PersistEvery throttles durability checkpoints to every Nth boundary
	// (default 1: persist at every boundary — the crash-migration window is
	// then a single stage or route iteration).
	PersistEvery int
	// Log receives operational one-liners and worker stderr; nil discards.
	Log io.Writer

	// WorkerCommand is the argv prefix that starts a worker process
	// (typically the placed binary followed by "-worker"); the manager
	// appends the per-job flags. Required.
	WorkerCommand []string
	// WorkerEnv is appended to the inherited environment of every worker.
	WorkerEnv []string

	// RetryBudget is how many automatic restarts a job gets after worker
	// crashes or stalls before it is quarantined as failed(poisoned)
	// (default 3; negative = no retries).
	RetryBudget int
	// BackoffBase/BackoffMax bound the exponential restart backoff
	// (defaults 250ms and 10s): restart k waits min(Base·2^(k-1), Max).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// StallTimeout kills a worker that has not heartbeated for this long
	// (default 60s; negative disables the stall monitor). The kill feeds the
	// same crash-resume path as a real crash.
	StallTimeout time.Duration
	// HeartbeatEvery is the worker heartbeat interval (default 1s).
	HeartbeatEvery time.Duration

	// MaxQueued bounds the number of jobs waiting in state queued; beyond
	// it Submit sheds with ErrOverloaded (default 64; negative = unbounded).
	MaxQueued int
	// MinFreeBytes sheds submissions when the state dir's filesystem has
	// less than this many bytes free (default 64 MiB; negative disables).
	MinFreeBytes int64

	// FaultSpecs/FaultSeed arm deterministic worker faults ("worker_crash:K",
	// "worker_stall:K" — see internal/guard/inject) in every launched worker.
	// Chaos tests only; empty in production.
	FaultSpecs []string
	FaultSeed  int64
}

func (c *Config) fill() {
	if c.Capacity < 1 {
		c.Capacity = 1
	}
	if c.Quantum < 1 {
		c.Quantum = 4
	}
	if c.PersistEvery < 1 {
		c.PersistEvery = 1
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 3
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * time.Second
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 60 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 64
	}
	if c.MinFreeBytes == 0 {
		c.MinFreeBytes = 64 << 20
	}
}

// Manager owns the job table, the scheduler and the supervised worker
// processes. All methods are safe for concurrent use.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	jobs    map[string]*job
	sched   *sched
	nextSeq int
	closed  bool

	monitorStop chan struct{}
	monitorOnce sync.Once

	// Supervision telemetry lives in its own registry — never a job's trace
	// observer — so the counters cannot perturb canonical traces.
	sreg         *telemetry.Registry
	cRestarts    *telemetry.Counter
	cQuarantines *telemetry.Counter
	cStalls      *telemetry.Counter
	cShed        *telemetry.Counter

	wg sync.WaitGroup // one count per worker supervisor + the stall monitor
}

var (
	// ErrNoSuchJob is returned for an unknown job ID.
	ErrNoSuchJob = errors.New("jobs: no such job")
	// ErrBadTransition is returned when a pause/resume/cancel does not apply
	// to the job's current state.
	ErrBadTransition = errors.New("jobs: invalid state transition")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: manager is closed")
	// ErrOverloaded is returned by Submit when admission control sheds the
	// request (queue cap or disk guard); the HTTP layer maps it to 503 with
	// a Retry-After.
	ErrOverloaded = errors.New("jobs: overloaded")
)

// Open creates a Manager over cfg.Dir, creating the directory if needed and
// recovering any jobs a previous process left behind:
//
//   - terminal jobs are adopted read-only (their traces replay over SSE);
//   - paused jobs stay paused, ready to resume from their checkpoint;
//   - queued/running jobs are re-queued — from their latest valid checkpoint
//     when one exists (the trace file is first truncated to the events that
//     preceded it, keeping the migrated run's trace byte-exact), from
//     scratch otherwise;
//   - jobs caught mid-cancellation are marked cancelled.
func Open(cfg Config) (*Manager, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobs: Config.Dir is required")
	}
	if len(cfg.WorkerCommand) == 0 {
		return nil, fmt.Errorf("jobs: Config.WorkerCommand is required (the placed binary plus \"-worker\")")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:         cfg,
		jobs:        map[string]*job{},
		sched:       newSched(cfg.Capacity, cfg.Quantum),
		monitorStop: make(chan struct{}),
		sreg:        telemetry.NewRegistry(),
	}
	m.cRestarts = m.sreg.Counter("supervise.restarts")
	m.cQuarantines = m.sreg.Counter("supervise.quarantines")
	m.cStalls = m.sreg.Counter("supervise.stalls")
	m.cShed = m.sreg.Counter("supervise.shed_requests")
	if err := m.recover(); err != nil {
		return nil, err
	}
	if cfg.StallTimeout > 0 {
		m.wg.Add(1)
		go m.monitor()
	}
	m.mu.Lock()
	m.scheduleLocked()
	m.mu.Unlock()
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Log != nil {
		fmt.Fprintf(m.cfg.Log, "jobs: "+format+"\n", args...)
	}
}

// ---- Submission and control ----

// Submit validates spec, applies admission control, registers the job and
// schedules it. It returns the job ID immediately; the placement runs
// asynchronously in a supervised worker process.
func (m *Manager) Submit(spec Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	// Building the design up front rejects a broken inline payload at
	// submission instead of failing the job later; workers rebuild it
	// (deterministically) when they run.
	if _, err := spec.BuildDesign(); err != nil {
		return "", err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", ErrClosed
	}
	if m.cfg.MaxQueued > 0 {
		if q := m.queuedLocked(); q >= m.cfg.MaxQueued {
			m.cShed.Inc()
			return "", fmt.Errorf("%w: %d jobs queued (cap %d)", ErrOverloaded, q, m.cfg.MaxQueued)
		}
	}
	if m.cfg.MinFreeBytes > 0 {
		if free, err := diskFree(m.cfg.Dir); err == nil && free < uint64(m.cfg.MinFreeBytes) {
			m.cShed.Inc()
			return "", fmt.Errorf("%w: %d bytes free on state dir (min %d)", ErrOverloaded, free, m.cfg.MinFreeBytes)
		}
	}
	m.nextSeq++
	j := &job{
		id:      fmt.Sprintf("j%04d", m.nextSeq),
		seq:     m.nextSeq,
		spec:    spec,
		created: time.Now().UTC(),
		state:   StateQueued,
	}
	j.dir = filepath.Join(m.cfg.Dir, j.id)
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.OpenFile(m.tracePath(j), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	j.traceFile = f
	j.hub = telemetry.NewHub(f)
	m.jobs[j.id] = j
	if err := m.persistLocked(j); err != nil {
		return "", err
	}
	m.sched.add(j.id, j.seq, j.spec.Priority, m.budget(&j.spec))
	m.logf("submitted %s design=%s mode=%s workers=%d priority=%d",
		j.id, j.spec.DesignName(), j.spec.Mode, m.budget(&j.spec), j.spec.Priority)
	m.scheduleLocked()
	return j.id, nil
}

// queuedLocked counts jobs waiting in state queued (including crash backoff).
func (m *Manager) queuedLocked() int {
	n := 0
	for _, j := range m.jobs {
		if j.state == StateQueued {
			n++
		}
	}
	return n
}

// Pause asks a job to park: a running job's worker checkpoints and stops at
// its next stage boundary, a queued job leaves the scheduler immediately.
// Pausing a paused or pausing job is a no-op.
func (m *Manager) Pause(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ErrNoSuchJob
	}
	switch j.state {
	case StatePaused, StatePausing:
		return nil
	case StateQueued:
		m.stopBackoffLocked(j)
		m.sched.remove(id)
		j.state = StatePaused
		return m.persistLocked(j)
	case StateRunning:
		j.pauseWanted = true
		j.state = StatePausing
		m.sched.stop(id)
		m.stopWorkerLocked(j)
		m.scheduleLocked() // a waiter may be admissible once the slots free
		return m.persistLocked(j)
	default:
		return fmt.Errorf("%w: cannot pause a %s job", ErrBadTransition, j.state)
	}
}

// Resume re-queues a paused job; it continues from its checkpoint.
func (m *Manager) Resume(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ErrNoSuchJob
	}
	if j.state != StatePaused {
		return fmt.Errorf("%w: cannot resume a %s job", ErrBadTransition, j.state)
	}
	j.state = StateQueued
	m.sched.add(j.id, j.seq, j.spec.Priority, m.budget(&j.spec))
	if err := m.persistLocked(j); err != nil {
		return err
	}
	m.scheduleLocked()
	return nil
}

// Cancel aborts a job. A running worker is interrupted (its cancellation
// checkpoint is disabled, so the abort cannot disturb the job's last
// migration point); a queued or paused job goes terminal immediately.
// Cancelling an already-cancelled job is a no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ErrNoSuchJob
	}
	switch j.state {
	case StateCancelled, StateCancelling:
		return nil
	case StateQueued, StatePaused:
		m.stopBackoffLocked(j)
		m.sched.remove(id)
		j.state = StateCancelled
		m.finishLocked(j)
		m.scheduleLocked()
		return m.persistLocked(j)
	case StateRunning, StatePausing:
		j.state = StateCancelling
		m.cancelWorkerLocked(j)
		return m.persistLocked(j)
	default:
		return fmt.Errorf("%w: cannot cancel a %s job", ErrBadTransition, j.state)
	}
}

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, ErrNoSuchJob
	}
	return m.viewLocked(j), nil
}

// List returns snapshots of all jobs in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.viewLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Hub returns the job's telemetry hub for SSE/dashboard subscribers. The
// hub of a terminal job is closed: subscribers receive the full backlog and
// an immediate end-of-stream.
func (m *Manager) Hub(id string) (*telemetry.Hub, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNoSuchJob
	}
	return j.hub, nil
}

// TracePath returns the job's canonical JSONL trace file.
func (m *Manager) TracePath(id string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return "", ErrNoSuchJob
	}
	return m.tracePath(j), nil
}

// PlacementPath returns the final placement file of a done job.
func (m *Manager) PlacementPath(id string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return "", ErrNoSuchJob
	}
	if j.state != StateDone {
		return "", fmt.Errorf("%w: placement available once done, job is %s", ErrBadTransition, j.state)
	}
	return filepath.Join(j.dir, "out.place"), nil
}

// Ready reports whether the server should accept new submissions, with a
// reason when it should not — the /readyz probe. Distinct from liveness: a
// draining or overloaded daemon is alive but not ready.
func (m *Manager) Ready() (bool, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, "draining"
	}
	if m.cfg.MaxQueued > 0 {
		if q := m.queuedLocked(); q >= m.cfg.MaxQueued {
			return false, fmt.Sprintf("overloaded: %d jobs queued (cap %d)", q, m.cfg.MaxQueued)
		}
	}
	if m.cfg.MinFreeBytes > 0 {
		if free, err := diskFree(m.cfg.Dir); err == nil && free < uint64(m.cfg.MinFreeBytes) {
			return false, fmt.Sprintf("low disk: %d bytes free on state dir", free)
		}
	}
	return true, ""
}

// Stats snapshots the supervision metrics (restarts, quarantines, stalls,
// shed requests, live worker/queue gauges). The registry is separate from
// every job's trace observer, so reading it never perturbs canonical traces.
func (m *Manager) Stats() []telemetry.Metric {
	m.mu.Lock()
	var maxAge time.Duration
	active, queued := 0, 0
	now := time.Now()
	for _, j := range m.jobs {
		if j.proc != nil {
			active++
			if age := now.Sub(j.lastHB); age > maxAge {
				maxAge = age
			}
		}
		if j.state == StateQueued {
			queued++
		}
	}
	m.sreg.VolatileGauge("supervise.active_workers").Set(float64(active))
	m.sreg.VolatileGauge("supervise.queued_jobs").Set(float64(queued))
	m.sreg.VolatileGauge("supervise.heartbeat_age_ms").Set(float64(maxAge.Milliseconds()))
	m.mu.Unlock()
	return m.sreg.Snapshot()
}

// NoteShed records a shed request decided outside the manager (the HTTP
// layer's per-submitter rate limiter).
func (m *Manager) NoteShed() { m.cShed.Inc() }

// ---- Scheduling and worker supervision ----

// budget is the job's effective worker-slot budget.
func (m *Manager) budget(s *Spec) int {
	w := s.Workers
	if w < 1 {
		w = 1
	}
	if w > m.cfg.Capacity {
		w = m.cfg.Capacity
	}
	return w
}

// scheduleLocked launches workers for every job the scheduler admits and
// signals preemption victims. Callers hold m.mu.
func (m *Manager) scheduleLocked() {
	if m.closed {
		return
	}
	for _, id := range m.sched.decide() {
		j := m.jobs[id]
		if err := m.launchWorkerLocked(j); err != nil {
			// A failed launch takes the same path as a crash: backoff,
			// retry, and quarantine if it keeps failing.
			m.noteCrashLocked(j, fmt.Sprintf("worker launch: %v", err))
			if perr := m.persistLocked(j); perr != nil {
				m.logf("%s: persist: %v", j.id, perr)
			}
		}
	}
	// decide may have marked running jobs as preemption victims; tell their
	// workers to checkpoint-and-stop at the next boundary.
	for _, id := range m.sched.stopping() {
		if j := m.jobs[id]; j != nil {
			m.stopWorkerLocked(j)
		}
	}
}

// prepareLaunchLocked fixes up the job's on-disk state before a worker
// starts (see rollBackLocked) and rebuilds the hub when that changed the
// trace: live subscribers get an eof and reconnect to the consistent
// backlog. Idempotent: a clean boundary stop passes through without
// touching the stream, and a first launch finds the trace already empty.
func (m *Manager) prepareLaunchLocked(j *job) error {
	lines, changed, err := m.rollBackLocked(j, j.segments > 0)
	if err != nil || !changed {
		return err
	}
	return m.rebuildStreamLocked(j, lines)
}

// rollBackLocked moves the job's on-disk state to its latest valid migration
// point, for a launch and for a restarted daemon's adoption alike. It picks
// the latest valid checkpoint (promoting .prev over a corrupt primary) and
// truncates the trace to exactly the events that preceded it. Only boundary
// checkpoints exist (the manager disables cancellation checkpoints), so any
// valid file is trace-exact. With no usable checkpoint the job restarts from
// scratch: the checkpoint files go, and with emptyTrace the trace is
// emptied. It returns the lines to seed the job's hub with and whether the
// trace file changed.
func (m *Manager) rollBackLocked(j *job, emptyTrace bool) (lines [][]byte, changed bool, err error) {
	trace := m.tracePath(j)
	ckpt := filepath.Join(j.dir, "run.ckpt")
	info, ierr := core.InspectCheckpoint(ckpt)
	if ierr != nil && errors.Is(ierr, core.ErrCheckpointCorrupt) {
		prev := ckpt + ".prev"
		if pinfo, perr := core.InspectCheckpoint(prev); perr == nil {
			if rerr := os.Rename(prev, ckpt); rerr != nil {
				return nil, false, rerr
			}
			info, ierr = pinfo, nil
			m.logf("%s: primary checkpoint corrupt; promoted .prev", j.id)
		}
	}
	if ierr == nil {
		lines, changed, err = truncateTrace(trace, info.TraceSeq)
		if err == nil {
			j.resume = true
			j.lastCheckpoint = fmt.Sprintf("%s iter=%d", info.Stage, info.Iter)
			return lines, changed, nil
		}
		if !errors.Is(err, errTraceShort) {
			return nil, false, err
		}
		// Checkpoint claims events the trace never got: the pair is
		// inconsistent, so a byte-exact migration is impossible. Restart
		// from scratch rather than serve a wrong trace.
		m.logf("%s: %v; restarting from scratch", j.id, err)
	}
	os.Remove(ckpt)
	os.Remove(ckpt + ".prev")
	j.resume = false
	if !emptyTrace {
		return nil, false, nil
	}
	return nil, true, os.WriteFile(trace, nil, 0o644)
}

// rebuildStreamLocked replaces the job's hub and trace file handle after the
// trace was rewritten on disk. The old hub closes, so live subscribers see
// an end-of-stream and reconnect.
func (m *Manager) rebuildStreamLocked(j *job, lines [][]byte) error {
	if j.hub != nil {
		j.hub.Close()
	}
	if j.traceFile != nil {
		j.traceFile.Close()
		j.traceFile = nil
	}
	f, err := os.OpenFile(m.tracePath(j), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.traceFile = f
	j.hub = telemetry.NewHub(f)
	j.hub.Seed(lines)
	return nil
}

// launchWorkerLocked starts one worker process for the job and a supervisor
// goroutine that consumes its stdout protocol until exit.
func (m *Manager) launchWorkerLocked(j *job) error {
	if err := m.prepareLaunchLocked(j); err != nil {
		return err
	}
	argv := append([]string{}, m.cfg.WorkerCommand...)
	argv = append(argv,
		"-dir", j.dir,
		"-budget", strconv.Itoa(m.budget(&j.spec)),
		"-persist-every", strconv.Itoa(m.cfg.PersistEvery),
		"-heartbeat-ms", strconv.Itoa(int(m.cfg.HeartbeatEvery/time.Millisecond)),
		"-boundary-base", strconv.Itoa(j.boundaryTotal),
	)
	if j.resume {
		argv = append(argv, "-resume")
	}
	for _, spec := range m.cfg.FaultSpecs {
		argv = append(argv, "-inject", spec)
	}
	if len(m.cfg.FaultSpecs) > 0 {
		argv = append(argv, "-inject-seed", strconv.FormatInt(m.cfg.FaultSeed, 10))
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), m.cfg.WorkerEnv...)
	if m.cfg.Log != nil {
		cmd.Stderr = m.cfg.Log
	}
	setPdeathsig(cmd)
	// The worker holds our write end of its stdin open for its lifetime;
	// closing it (or daemon death closing it) tells the worker it is
	// orphaned.
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return err
	}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		return err
	}
	j.state = StateRunning
	j.segments++
	j.stopSent = false
	j.stalled = false
	j.endMsg = nil
	j.failMsg = ""
	j.proc = cmd.Process
	j.pid = cmd.Process.Pid
	j.lastHB = time.Now()
	if err := m.persistLocked(j); err != nil {
		m.logf("%s: persist: %v", j.id, err)
	}
	m.logf("%s: starting segment %d pid=%d (resume=%v)", j.id, j.segments, j.pid, j.resume)
	hub := j.hub
	m.wg.Add(1)
	go m.superviseWorker(j, cmd, hub, stdin, stdout)
	return nil
}

// superviseWorker consumes one worker's stdout until it exits: raw trace
// lines flow into the job's hub (and so the canonical trace file), control
// lines update supervision state. It then classifies the exit.
func (m *Manager) superviseWorker(j *job, cmd *exec.Cmd, hub *telemetry.Hub, stdin io.WriteCloser, stdout io.Reader) {
	defer m.wg.Done()
	br := bufio.NewReaderSize(stdout, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			// A torn final line (no newline) from a dying worker is dropped:
			// the trace file must stay valid JSONL.
			if line[0] == ctlPrefix {
				m.handleControl(j, line[1:])
			} else {
				hub.Write(line)
			}
		}
		if err != nil {
			break
		}
	}
	werr := cmd.Wait()
	stdin.Close()
	code := -1
	if cmd.ProcessState != nil {
		code = cmd.ProcessState.ExitCode()
	}
	desc := fmt.Sprintf("exit code %d", code)
	if werr != nil {
		desc = werr.Error() // "signal: killed" and friends
	}
	m.onWorkerExit(j, code, desc)
}

// handleControl applies one worker control message.
func (m *Manager) handleControl(j *job, payload []byte) {
	var msg ctlMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		m.logf("%s: bad control line: %v", j.id, err)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j.lastHB = time.Now()
	switch msg.Type {
	case "hb":
	case "boundary":
		j.boundaryTotal++
		if msg.Ckpt {
			j.lastCheckpoint = msg.Point
		}
		// The scheduler decides pause/preemption/fair-share at boundaries,
		// exactly as it did in-process; a stop decision becomes a signal and
		// the worker checkpoints at its next boundary.
		if m.sched.onBoundary(j.id) {
			m.stopWorkerLocked(j)
		}
	case "end":
		j.endMsg = msg.Summary
	case "fail":
		j.failMsg = msg.Error
	}
}

// stopWorkerLocked asks the worker to checkpoint-and-stop at its next stage
// boundary (SIGTERM; exit 7). Deduplicated per launch.
func (m *Manager) stopWorkerLocked(j *job) {
	if j.proc == nil || j.stopSent {
		return
	}
	j.stopSent = true
	if err := j.proc.Signal(syscall.SIGTERM); err != nil {
		m.logf("%s: stop signal: %v", j.id, err)
	}
}

// cancelWorkerLocked interrupts the worker's run (SIGINT; exit 3).
func (m *Manager) cancelWorkerLocked(j *job) {
	if j.proc == nil {
		return
	}
	if err := j.proc.Signal(os.Interrupt); err != nil {
		m.logf("%s: cancel signal: %v", j.id, err)
	}
}

// onWorkerExit is the supervisor's state machine: it classifies the worker's
// exit code against the contract (see worker.go), persists the transition
// and lets the scheduler fill the freed slots.
func (m *Manager) onWorkerExit(j *job, code int, desc string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.proc = nil
	j.pid = 0
	switch {
	case j.state == StateCancelling:
		// Whatever the exit code — a clean exit 3, or a crash racing the
		// cancel — the user asked for the job to end.
		j.state = StateCancelled
		m.sched.remove(j.id)
		m.finishLocked(j)
		m.logf("%s: cancelled", j.id)
	case code == workerExitStopped:
		// Scheduled stop at a boundary: pause parks the job, preemption and
		// graceful shutdown requeue it. Either way the next worker resumes
		// from the checkpoint and the trace continues byte-exactly.
		j.resume = true
		if j.pauseWanted {
			j.pauseWanted = false
			j.state = StatePaused
			m.sched.remove(j.id)
			m.logf("%s: paused at %s", j.id, j.lastCheckpoint)
		} else {
			j.state = StateQueued
			m.sched.requeue(j.id)
			m.logf("%s: preempted at %s", j.id, j.lastCheckpoint)
		}
	case code == workerExitOK && j.endMsg != nil:
		j.summary = j.endMsg
		j.endMsg = nil
		j.state = StateDone
		m.sched.remove(j.id)
		m.finishLocked(j)
		m.logf("%s: done HPWL=%.0f DRVs=%d", j.id, j.summary.HPWLFinal, j.summary.DRVs)
	case code == workerExitUsage, code == core.ExitDegenerate, code == core.ExitGuard,
		code == core.ExitNoRoom:
		// Deterministic failures: retrying cannot help, fail immediately.
		j.state = StateFailed
		if j.errMsg = j.failMsg; j.errMsg == "" {
			j.errMsg = fmt.Sprintf("worker: %s", desc)
		}
		m.sched.remove(j.id)
		m.finishLocked(j)
		m.logf("%s: failed: %s", j.id, j.errMsg)
	default:
		// Crashes, kills, stalls (the monitor's kill lands here), corrupt
		// checkpoints (a retry heals them via the .prev promotion), injected
		// crashes, exit 0 without an end message: the crash-resume path.
		reason := desc
		if j.stalled {
			reason = "stalled (heartbeat timeout); killed"
		} else if j.failMsg != "" {
			reason = j.failMsg
		}
		m.noteCrashLocked(j, reason)
	}
	if perr := m.persistLocked(j); perr != nil {
		m.logf("%s: persist: %v", j.id, perr)
	}
	m.scheduleLocked()
}

// noteCrashLocked handles an unclassified worker death: requeue with bounded
// exponential backoff while the retry budget lasts, quarantine as
// failed(poisoned) after.
func (m *Manager) noteCrashLocked(j *job, reason string) {
	if j.pauseWanted {
		// The pause asked for a stop; the crash delivered one. Park the job
		// — Resume will relaunch from the last checkpoint.
		j.pauseWanted = false
		j.state = StatePaused
		m.sched.remove(j.id)
		m.logf("%s: worker died during pause (%s); parked paused", j.id, reason)
		return
	}
	j.restarts++
	m.cRestarts.Inc()
	if j.restarts > m.cfg.RetryBudget {
		j.poisoned = true
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("poisoned: retry budget (%d) exhausted; last worker death: %s",
			m.cfg.RetryBudget, reason)
		m.cQuarantines.Inc()
		m.sched.remove(j.id)
		m.finishLocked(j)
		m.logf("%s: quarantined as failed(poisoned): %s", j.id, reason)
		return
	}
	backoff := m.backoffFor(j.restarts)
	j.state = StateQueued
	m.sched.remove(j.id) // out of the scheduler until the backoff elapses
	m.logf("%s: worker died (%s); restart %d/%d in %v",
		j.id, reason, j.restarts, m.cfg.RetryBudget, backoff)
	if m.closed {
		return // persisted as queued; the next Open requeues it
	}
	id := j.id
	j.backoffTimer = time.AfterFunc(backoff, func() { m.endBackoff(id) })
}

// backoffFor returns min(BackoffBase·2^(restarts-1), BackoffMax).
func (m *Manager) backoffFor(restarts int) time.Duration {
	d := m.cfg.BackoffBase
	for i := 1; i < restarts; i++ {
		d *= 2
		if d >= m.cfg.BackoffMax {
			return m.cfg.BackoffMax
		}
	}
	if d > m.cfg.BackoffMax {
		d = m.cfg.BackoffMax
	}
	return d
}

// endBackoff re-enters a crashed job into the scheduler once its backoff
// elapses. The state checks make a timer that raced a pause/cancel/close a
// no-op.
func (m *Manager) endBackoff(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	j := m.jobs[id]
	if j == nil || j.backoffTimer == nil || j.state != StateQueued {
		return
	}
	j.backoffTimer = nil
	m.sched.add(j.id, j.seq, j.spec.Priority, m.budget(&j.spec))
	m.scheduleLocked()
}

// stopBackoffLocked cancels a pending crash-restart timer.
func (m *Manager) stopBackoffLocked(j *job) {
	if j.backoffTimer != nil {
		j.backoffTimer.Stop()
		j.backoffTimer = nil
	}
}

// monitor is the stall detector: a worker that has neither heartbeated nor
// reported a boundary for StallTimeout is killed, which routes it into the
// crash-resume path.
func (m *Manager) monitor() {
	defer m.wg.Done()
	tick := m.cfg.StallTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.monitorStop:
			return
		case <-t.C:
			m.mu.Lock()
			now := time.Now()
			for _, j := range m.jobs {
				if j.proc != nil && !j.stalled && now.Sub(j.lastHB) > m.cfg.StallTimeout {
					j.stalled = true
					m.cStalls.Inc()
					m.logf("%s: worker pid %d stalled (silent for %v); killing",
						j.id, j.pid, now.Sub(j.lastHB).Round(time.Millisecond))
					j.proc.Kill()
				}
			}
			m.mu.Unlock()
		}
	}
}

func (m *Manager) stopMonitor() {
	m.monitorOnce.Do(func() { close(m.monitorStop) })
}

// finishLocked closes the job's live stream and trace file. Idempotent.
func (m *Manager) finishLocked(j *job) {
	if j.hub != nil {
		j.hub.Close()
	}
	if j.traceFile != nil {
		if err := j.traceFile.Close(); err != nil {
			m.logf("%s: trace close: %v", j.id, err)
		}
		j.traceFile = nil
	}
}

// ---- Persistence and recovery ----

func (m *Manager) tracePath(j *job) string {
	return filepath.Join(j.dir, "trace.jsonl")
}

func (m *Manager) persistLocked(j *job) error {
	rec := jobRecord{
		ID:         j.id,
		Seq:        j.seq,
		Spec:       j.spec,
		State:      j.state,
		Created:    j.created,
		Segments:   j.segments,
		Error:      j.errMsg,
		Summary:    j.summary,
		Restarts:   j.restarts,
		Poisoned:   j.poisoned,
		Boundaries: j.boundaryTotal,
	}
	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(j.dir, "job.json"), append(data, '\n'))
}

func (m *Manager) viewLocked(j *job) JobView {
	mode := j.spec.Mode
	if mode == "" {
		mode = "ours"
	}
	return JobView{
		ID:         j.id,
		Design:     j.spec.DesignName(),
		Mode:       mode,
		State:      j.state,
		Priority:   j.spec.Priority,
		Workers:    m.budget(&j.spec),
		Created:    j.created,
		Segments:   j.segments,
		Error:      j.errMsg,
		Summary:    j.summary,
		Checkpoint: j.lastCheckpoint,
		Restarts:   j.restarts,
		Poisoned:   j.poisoned,
		WorkerPID:  j.pid,
	}
}

// recover adopts the jobs a previous process left in the state directory.
func (m *Manager) recover() error {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(m.cfg.Dir, e.Name())
		data, err := os.ReadFile(filepath.Join(dir, "job.json"))
		if err != nil {
			if os.IsNotExist(err) {
				continue // not a job directory
			}
			return err
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			m.logf("recover %s: bad job.json: %v (skipped)", e.Name(), err)
			continue
		}
		j := &job{
			id:            rec.ID,
			seq:           rec.Seq,
			spec:          rec.Spec,
			dir:           dir,
			created:       rec.Created,
			state:         rec.State,
			errMsg:        rec.Error,
			summary:       rec.Summary,
			segments:      rec.Segments,
			restarts:      rec.Restarts,
			poisoned:      rec.Poisoned,
			boundaryTotal: rec.Boundaries,
		}
		if err := m.recoverJob(j); err != nil {
			return fmt.Errorf("recover %s: %w", j.id, err)
		}
		m.jobs[j.id] = j
		if j.seq > m.nextSeq {
			m.nextSeq = j.seq
		}
	}
	return nil
}

// recoverJob rebuilds one adopted job's runtime state (hub, trace file,
// scheduler entry) from its on-disk remains.
func (m *Manager) recoverJob(j *job) error {
	if j.state.Terminal() || j.state == StateCancelling {
		// Read-only adoption: seed a closed hub so SSE replays the full
		// stream and immediately ends it.
		lines, err := readTraceLines(m.tracePath(j))
		if err != nil {
			return err
		}
		j.hub = telemetry.NewHub(nil)
		j.hub.Seed(lines)
		j.hub.Close()
		if j.state.Terminal() {
			return nil
		}
		// The cancel was requested before the crash; honor it. The trace is
		// whatever the dead process got out — cancelled jobs carry no
		// byte-identity promise.
		j.state = StateCancelled
		return m.persistLocked(j)
	}

	lines, _, err := m.rollBackLocked(j, true)
	if err != nil {
		return err
	}
	if err := m.rebuildStreamLocked(j, lines); err != nil {
		return err
	}

	// Pausing collapses to paused (the stop was requested; the crash
	// delivered it); queued/running re-queue for migration.
	switch j.state {
	case StatePausing, StatePaused:
		j.state = StatePaused
	default:
		j.state = StateQueued
		m.sched.add(j.id, j.seq, j.spec.Priority, m.budget(&j.spec))
	}
	m.logf("%s: recovered as %s (resume=%v)", j.id, j.state, j.resume)
	return m.persistLocked(j)
}

// ---- Shutdown ----

// Close shuts the manager down gracefully: running workers checkpoint and
// stop at their next stage boundary and their jobs persist as queued, so a
// Manager reopened over the same directory resumes them byte-exactly.
// Blocks until all workers have exited.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	for id, j := range m.jobs {
		m.stopBackoffLocked(j)
		if j.state == StateRunning || j.state == StatePausing {
			m.sched.stop(id)
			m.stopWorkerLocked(j)
		}
	}
	m.mu.Unlock()
	m.stopMonitor()
	m.wg.Wait()
	m.mu.Lock()
	for _, j := range m.jobs {
		m.finishLocked(j)
	}
	m.mu.Unlock()
}
