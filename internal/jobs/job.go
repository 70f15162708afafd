package jobs

import (
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// State is a job's lifecycle state. Transitions:
//
//	queued ──▶ running ──▶ done | failed
//	  ▲           │
//	  │           ├─▶ pausing ──▶ paused ──▶ queued   (Resume)
//	  │           │                 │
//	  └───────────┘ (preemption)    │
//	queued/running/pausing/paused ──┴─▶ cancelling ──▶ cancelled
//
// Preemption (fair share or priority) moves a running job back to queued via
// a scheduled checkpoint; the states involved are invisible to the client —
// only an explicit Pause parks a job in paused.
//
// A worker-process crash or stall also moves running back to queued (after a
// backoff), invisibly to the client except for the restarts counter; once
// the retry budget is exhausted the job lands in failed with Poisoned set.
type State string

const (
	StateQueued     State = "queued"
	StateRunning    State = "running"
	StatePausing    State = "pausing" // pause requested; stopping at the next boundary
	StatePaused     State = "paused"
	StateCancelling State = "cancelling"
	StateCancelled  State = "cancelled"
	StateDone       State = "done"
	StateFailed     State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCancelled || s == StateDone || s == StateFailed
}

// Summary is the scorecard of a completed job, mirroring the placer CLI's
// result line.
type Summary struct {
	HPWLFinal    float64 `json:"hpwl_final"`
	DRWL         float64 `json:"drwl"`
	DRVias       int     `json:"dr_vias"`
	DRVs         int     `json:"drvs"`
	WLIters      int     `json:"wl_iters"`
	RouteIters   int     `json:"route_iters"`
	PlaceSeconds float64 `json:"place_seconds"`
	RouteSeconds float64 `json:"route_seconds"`
}

func summarize(res *core.Result) *Summary {
	return &Summary{
		HPWLFinal:    res.HPWLFinal,
		DRWL:         res.Metrics.DRWL,
		DRVias:       res.Metrics.DRVias,
		DRVs:         res.Metrics.DRVs,
		WLIters:      res.WLIters,
		RouteIters:   res.RouteIters,
		PlaceSeconds: res.PlaceTime.Seconds(),
		RouteSeconds: res.RouteTime.Seconds(),
	}
}

// JobView is the client-facing snapshot of a job, returned by the list and
// get endpoints.
type JobView struct {
	ID       string    `json:"id"`
	Design   string    `json:"design"`
	Mode     string    `json:"mode"`
	State    State     `json:"state"`
	Priority int       `json:"priority,omitempty"`
	Workers  int       `json:"workers,omitempty"`
	Created  time.Time `json:"created"`
	// Segments counts the pipeline segments run so far (1 for a job that was
	// never paused, preempted or migrated).
	Segments int      `json:"segments"`
	Error    string   `json:"error,omitempty"`
	Summary  *Summary `json:"summary,omitempty"`
	// Checkpoint is the last persisted pipeline cursor ("stage/iter/step"),
	// empty before the first boundary.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Restarts counts worker-process crashes/stalls the supervisor recovered
	// from (scheduled stops — pause, preemption, drain — do not count).
	Restarts int `json:"restarts,omitempty"`
	// Poisoned marks a failed job that exhausted its crash-retry budget: the
	// job itself is the likely cause, and the supervisor quarantined it.
	Poisoned bool `json:"poisoned,omitempty"`
	// WorkerPID is the job's current worker process, 0 when none is running.
	WorkerPID int `json:"worker_pid,omitempty"`
}

// jobRecord is the on-disk form (job.json) that lets a fresh process adopt
// the job after a crash. The spec is stored verbatim, except that an inline
// payload lives in its own file (payloadFile) and the record holds its
// SHA-256, so segments in the new process rebuild the identical design and
// options.
type jobRecord struct {
	ID   string `json:"id"`
	Seq  int    `json:"seq"`
	Spec Spec   `json:"spec"` // without the inline payload, which only payloadFile holds
	// PayloadSHA256 is the hex SHA-256 of an inline job's payloadFile; empty
	// for a catalog design. A record that still embeds Spec.Payload predates
	// payloadFile and is migrated on recovery.
	PayloadSHA256 string    `json:"payload_sha256,omitempty"`
	State         State     `json:"state"`
	Created       time.Time `json:"created"`
	Segments      int       `json:"segments"`
	Error         string    `json:"error,omitempty"`
	Summary       *Summary  `json:"summary,omitempty"`
	// Restarts counts crash/stall recoveries toward the retry budget, and
	// Poisoned marks a quarantined job (restarts exhausted the budget);
	// persisted, a restarted daemon neither resets a job's crash budget nor
	// revives a quarantined job. Boundaries counts every boundary report
	// ever observed for this job — monotonic across worker restarts
	// (including re-crossed boundaries after a crash) — and feeds the
	// worker's -boundary-base, so deterministic worker faults fire once per
	// global index, across daemon restarts too.
	Restarts   int  `json:"restarts,omitempty"`
	Poisoned   bool `json:"poisoned,omitempty"`
	Boundaries int  `json:"boundaries,omitempty"`
}

// job is the manager's internal bookkeeping for one placement: its
// persisted record plus the process-local runtime.
type job struct {
	jobRecord
	dir string // per-job state directory

	// hub carries the job's telemetry for the whole job lifetime in this
	// process: canonical sink = the trace file, subscribers = SSE clients
	// and dashboards. Closed exactly once, when the job goes terminal (or at
	// manager close), which ends live streams with eof.
	hub       *telemetry.Hub
	traceFile *os.File // canonical sink behind hub; nil once closed

	// pauseWanted distinguishes an explicit Pause (park in paused) from
	// scheduler preemption (requeue) when a segment stops at a boundary.
	pauseWanted bool
	// resume selects a checkpoint resume over a fresh start for the next
	// segment; prepareLaunchLocked recomputes it from the on-disk state.
	resume bool
	// lastCheckpoint is the most recent persisted cursor, for JobView.
	lastCheckpoint string

	// ---- Worker-process supervision ----

	// proc is the running worker process; nil when no segment is active.
	proc *os.Process
	pid  int
	// stopSent dedups the checkpoint-and-stop signal to the worker.
	stopSent bool
	// lastHB is the time of the last heartbeat or boundary report from the
	// worker; the stall monitor kills workers whose lastHB goes quiet.
	lastHB time.Time
	// stalled marks a worker the stall monitor decided to kill, so the exit
	// is classified as a stall rather than a plain crash.
	stalled bool
	// backoffTimer delays the requeue after a crash; nil outside backoff.
	backoffTimer *time.Timer
	// endMsg/failMsg buffer the worker's final control message until its
	// exit code arrives and the two are classified together.
	endMsg  *Summary
	failMsg string
}
