package jobs

// The worker side of process isolation: RunWorker is the body of the hidden
// `placed -worker` mode. One worker process runs one segment of one job from
// the job's state directory — checkpoint in, checkpoint/trace/placement out —
// so a panic, runaway allocation or wedged kernel takes down a single job's
// process, never the daemon or its other tenants.
//
// Protocol (worker → supervisor, over the worker's stdout):
//
//   - Raw canonical trace lines pass through verbatim. The supervisor owns
//     the job's trace file and hub; the worker never touches trace.jsonl, so
//     a torn write from a dying worker cannot corrupt it.
//   - Control lines are prefixed with '!' and carry one JSON ctlMsg:
//     {"type":"hb"} heartbeats, {"type":"boundary",...} at stage boundaries,
//     {"type":"end","summary":...} before a successful exit 0, and
//     {"type":"fail","error":...} before a failure exit.
//
// Supervisor → worker control is signals and stdin:
//
//   - SIGTERM: checkpoint-and-stop at the next stage boundary, exit 7
//     (pause, preemption, graceful drain).
//   - SIGINT: cancel the run's context, exit 3.
//   - stdin EOF: the daemon died; exit immediately. Checkpoint writes are
//     atomic, so the restarted daemon migrates the job from the last one.
//
// Exit codes extend the placer CLI's contract (DESIGN.md §9): 0 done,
// 2 usage (also a stored payload that is missing, fails its SHA-256 check
// or does not parse), and core.ExitCode's classes of a failed run
// (1 generic error, 3 cancelled, 4 corrupt checkpoint, 5 degenerate design,
// 6 guard failure, 8 no room to legalize), plus workerExitStopped (7) for a
// scheduled boundary stop. Anything else — a panic-free crash, an injected
// crash, a kill — is unclassified and triggers the supervisor's
// crash-resume path.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/designio"
	"repro/internal/guard/inject"
	"repro/internal/telemetry"
)

// Worker exit codes beside core.ExitCode's. 7 is the worker's scheduled
// boundary stop (the CLI reports that as 0, but the supervisor must tell
// "stopped as asked" from "finished").
const (
	workerExitOK      = 0
	workerExitUsage   = 2
	workerExitStopped = 7
	// workerExitCrashInjected is what the WorkerCrash fault exits with —
	// deliberately outside the classified range so the supervisor treats it
	// exactly like a kill -9.
	workerExitCrashInjected = 70
)

// ctlPrefix marks a control line in the worker's stdout stream; every other
// line is a canonical trace event passed through verbatim.
const ctlPrefix = '!'

// ctlMsg is one worker → supervisor control message.
type ctlMsg struct {
	Type    string   `json:"type"` // "hb" | "boundary" | "end" | "fail"
	Point   string   `json:"point,omitempty"`
	Ckpt    bool     `json:"ckpt,omitempty"`
	Error   string   `json:"error,omitempty"`
	Summary *Summary `json:"summary,omitempty"`
}

// muxWriter serializes the worker's two stdout streams — raw trace lines
// (the telemetry observer writes whole lines) and control messages — so they
// never interleave mid-line.
type muxWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// Write passes a trace line through verbatim (telemetry sinks receive one
// complete JSONL line per call).
func (m *muxWriter) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.w.Write(p)
}

func (m *muxWriter) control(msg ctlMsg) {
	data, err := json.Marshal(&msg)
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.w.Write(append(append([]byte{ctlPrefix}, data...), '\n'))
}

// faultSpecs is a repeatable -inject flag.
type faultSpecs []string

func (f *faultSpecs) String() string { return fmt.Sprint(*f) }
func (f *faultSpecs) Set(s string) error {
	*f = append(*f, s)
	return nil
}

// RunWorker runs one job segment from its state directory and returns the
// process exit code. It is the body of `placed -worker`; cmd/placed calls it
// before normal flag parsing so the mode stays hidden from -help.
func RunWorker(args []string) (code int) {
	defer func() {
		if r := recover(); r != nil {
			// A panic is precisely what process isolation exists for: turn it
			// into an unclassified exit and let the supervisor's crash-resume
			// path handle it.
			fmt.Fprintf(os.Stderr, "worker: panic: %v\n", r)
			code = core.ExitError
		}
	}()

	fs := flag.NewFlagSet("placed -worker", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	dir := fs.String("dir", "", "job state directory (required)")
	budget := fs.Int("budget", 1, "worker goroutines for the parallel kernels")
	persistEvery := fs.Int("persist-every", 1, "checkpoint every K stage boundaries")
	hbMillis := fs.Int("heartbeat-ms", 1000, "heartbeat interval")
	boundaryBase := fs.Int("boundary-base", 0, "global index of this segment's first boundary")
	resume := fs.Bool("resume", false, "resume from the state dir's checkpoint")
	injectSeed := fs.Int64("inject-seed", 0, "fault injection seed")
	var faults faultSpecs
	fs.Var(&faults, "inject", "arm a deterministic fault (point:iter; repeatable)")
	if err := fs.Parse(args); err != nil {
		return workerExitUsage
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "worker: -dir is required")
		return workerExitUsage
	}

	mux := &muxWriter{w: os.Stdout}

	data, err := os.ReadFile(filepath.Join(*dir, "job.json"))
	if err != nil {
		mux.control(ctlMsg{Type: "fail", Error: err.Error()})
		return workerExitUsage
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		mux.control(ctlMsg{Type: "fail", Error: "bad job.json: " + err.Error()})
		return workerExitUsage
	}

	var reg *inject.Registry
	if len(faults) > 0 {
		reg = inject.New(*injectSeed)
		for _, spec := range faults {
			if err := reg.ArmSpec(spec); err != nil {
				fmt.Fprintf(os.Stderr, "worker: %v\n", err)
				return workerExitUsage
			}
		}
	}

	// Orphan watch: the supervisor holds our stdin open for our lifetime and
	// never writes. EOF (or any read error) means the daemon is gone — exit
	// abruptly; the atomic checkpoint on disk is the migration point.
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(core.ExitError)
	}()

	// Heartbeats, until stopHB (a WorkerStall fault silences them so the
	// supervisor's stall detector — not the exit path — must reap us).
	hbStop := make(chan struct{})
	var hbOnce sync.Once
	stopHB := func() { hbOnce.Do(func() { close(hbStop) }) }
	defer stopHB()
	go func() {
		t := time.NewTicker(time.Duration(*hbMillis) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				mux.control(ctlMsg{Type: "hb"})
			}
		}
	}()

	// SIGTERM requests a checkpoint-and-stop at the next boundary; SIGINT
	// cancels the run outright.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stopReq atomic.Bool
	sig := make(chan os.Signal, 4)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		for s := range sig {
			if s == syscall.SIGTERM {
				stopReq.Store(true)
			} else {
				cancel()
			}
		}
	}()

	d, err := rec.loadDesign(*dir)
	if err != nil {
		mux.control(ctlMsg{Type: "fail", Error: err.Error()})
		if errors.Is(err, errBadPayload) {
			return workerExitUsage // the same bytes would fail a retry
		}
		return core.ExitError
	}
	opt := rec.Spec.coreOptions()
	opt.Workers = *budget
	opt.Observer = telemetry.NewObserver(mux)
	opt.CheckpointPath = filepath.Join(*dir, "run.ckpt")
	opt.DisableCancelCheckpoint = true
	boundarySeen := 0 // this segment's boundary count, for the persist throttle
	boundaryIdx := 0  // offset from -boundary-base, for deterministic faults
	opt.BoundaryHook = func(point string) core.BoundaryAction {
		idx := *boundaryBase + boundaryIdx
		boundaryIdx++
		action := core.BoundaryContinue
		if stopReq.Load() {
			action = core.BoundaryStop
		} else {
			boundarySeen++
			if boundarySeen%*persistEvery == 0 {
				action = core.BoundaryCheckpoint
			}
		}
		mux.control(ctlMsg{Type: "boundary", Point: point, Ckpt: action != core.BoundaryContinue})
		if reg.ShouldFire(inject.WorkerStall, idx) {
			stopHB()
			select {} // wedge until the supervisor kills us
		}
		if reg.ShouldFire(inject.WorkerCrash, idx) {
			os.Exit(workerExitCrashInjected) // no flush, no cleanup: kill -9 in spirit
		}
		return action
	}

	var res *core.Result
	if *resume {
		res, err = core.ResumeFromFile(ctx, d, opt.CheckpointPath, opt)
	} else {
		res, err = core.PlaceContext(ctx, d, opt)
	}
	switch code := core.ExitCode(err); {
	case errors.Is(err, core.ErrCheckpointed):
		// Scheduled boundary stop: no flush — the resumed segment's events
		// must concatenate into one continuous canonical trace.
		return workerExitStopped
	case code == core.ExitCancelled:
		return code
	case code != 0:
		mux.control(ctlMsg{Type: "fail", Error: err.Error()})
		return code
	}

	// Success: mirror the plain CLI's end-of-run telemetry (metrics flush,
	// no volatile gauges), write the placement, and only then report done —
	// the supervisor treats exit 0 without an end message as a crash.
	if ferr := opt.Observer.Flush(); ferr != nil {
		mux.control(ctlMsg{Type: "fail", Error: "trace flush: " + ferr.Error()})
		return core.ExitError
	}
	var buf bytes.Buffer
	if werr := designio.Write(&buf, d); werr == nil {
		werr = writeFileAtomic(filepath.Join(*dir, "out.place"), buf.Bytes())
		if werr != nil {
			mux.control(ctlMsg{Type: "fail", Error: werr.Error()})
			return core.ExitError
		}
	} else {
		mux.control(ctlMsg{Type: "fail", Error: werr.Error()})
		return core.ExitError
	}
	mux.control(ctlMsg{Type: "end", Summary: summarize(res)})
	return workerExitOK
}
