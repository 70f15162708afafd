package jobs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/designio"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// fastSpec is the tiny_hot spec all byte-identity tests run, mirroring the
// core suite's fastOpts tuning.
func fastSpec() Spec {
	return Spec{
		Design:            "tiny_hot",
		GridHint:          32,
		MaxWLIters:        120,
		MaxRouteIters:     6,
		StepsPerRouteIter: 8,
	}
}

var refOnce sync.Once
var refPlacement, refCanon []byte

// reference runs fastSpec straight through core.Place — the plain-CLI
// equivalent — and returns the placement bytes and canonical trace every
// server-run variant must reproduce exactly.
func reference(t *testing.T) (placement, canon []byte) {
	t.Helper()
	refOnce.Do(func() {
		spec := fastSpec()
		d, err := spec.BuildDesign()
		if err != nil {
			t.Fatalf("reference design: %v", err)
		}
		opt := spec.coreOptions()
		opt.Workers = 1
		var trace bytes.Buffer
		obs := telemetry.NewObserver(&trace)
		opt.Observer = obs
		if _, err := core.PlaceContext(context.Background(), d, opt); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if err := obs.Flush(); err != nil {
			t.Fatalf("reference flush: %v", err)
		}
		refCanon, err = telemetry.StripTimings(trace.Bytes())
		if err != nil {
			t.Fatalf("reference canon: %v", err)
		}
		var place bytes.Buffer
		if err := designio.Write(&place, d); err != nil {
			t.Fatalf("reference placement: %v", err)
		}
		refPlacement = place.Bytes()
	})
	if refPlacement == nil {
		t.Fatal("reference run failed in an earlier test")
	}
	return refPlacement, refCanon
}

// waitState polls until the job reaches want (fails after 60 s).
func waitState(t *testing.T, m *Manager, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := m.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() && want != v.State {
			t.Fatalf("job %s is terminal %s (error %q), wanted %s", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, wanted %s", id, v.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertJobMatchesReference compares a done job's placement and canonical
// trace byte-for-byte against the plain run.
func assertJobMatchesReference(t *testing.T, m *Manager, id string) {
	t.Helper()
	wantPlace, wantCanon := reference(t)
	placePath, err := m.PlacementPath(id)
	if err != nil {
		t.Fatalf("placement path: %v", err)
	}
	gotPlace, err := os.ReadFile(placePath)
	if err != nil {
		t.Fatalf("read placement: %v", err)
	}
	if !bytes.Equal(gotPlace, wantPlace) {
		t.Errorf("job %s placement differs from the plain run (%d vs %d bytes)",
			id, len(gotPlace), len(wantPlace))
	}
	tracePath, err := m.TracePath(id)
	if err != nil {
		t.Fatalf("trace path: %v", err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	gotCanon, err := telemetry.StripTimings(raw)
	if err != nil {
		t.Fatalf("canonicalize job trace: %v", err)
	}
	if !bytes.Equal(gotCanon, wantCanon) {
		t.Errorf("job %s canonical trace differs from the plain run (%d vs %d bytes)",
			id, len(gotCanon), len(wantCanon))
	}
}

// TestPreemptionAndPauseAreByteExact is the tentpole invariant, driven
// deterministically: capacity 1, quantum 1 and two equal-priority jobs make
// the scheduler ping-pong them at every stage boundary, so both jobs run as
// many checkpoint/resume segments. Job 1 is additionally paused (while
// queued between segments) and resumed. Both placements and canonical
// traces must equal the plain uninterrupted run's bytes.
func TestPreemptionAndPauseAreByteExact(t *testing.T) {
	base := testutil.GoroutineBaseline()
	m, err := Open(workerConfig(t, Config{Dir: t.TempDir(), Capacity: 1, Quantum: 1}))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	id2, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 yields to job 2 at its first boundary (quantum 1, one slot);
	// catch it in the queue and park it.
	waitState(t, m, id1, StateQueued)
	if err := m.Pause(id1); err != nil {
		t.Fatalf("pause: %v", err)
	}
	v := waitState(t, m, id1, StatePaused)
	if v.Segments < 1 {
		t.Fatalf("job 1 paused before running any segment")
	}
	// With job 1 parked, job 2 owns the pool and finishes.
	waitState(t, m, id2, StateDone)
	if err := m.Resume(id1); err != nil {
		t.Fatalf("resume: %v", err)
	}
	v = waitState(t, m, id1, StateDone)
	if v.Segments < 2 {
		t.Fatalf("job 1 ran %d segment(s); the preemption/pause never split it", v.Segments)
	}
	assertJobMatchesReference(t, m, id1)
	assertJobMatchesReference(t, m, id2)

	v2, _ := m.Get(id2)
	if v2.Summary == nil || v2.Summary.RouteIters == 0 {
		t.Errorf("done job carries no summary: %+v", v2.Summary)
	}
	m.Close()
	testutil.AssertNoGoroutineLeak(t, base)
}

// TestRecoveryAdoptsTerminalAndPausedJobs restarts a manager over a
// directory holding one done and one paused job: the done job must stay
// done with its artifacts intact, the paused job must resume on request and
// still match the plain run.
func TestRecoveryAdoptsTerminalAndPausedJobs(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(workerConfig(t, Config{Dir: dir, Capacity: 1, Quantum: 1}))
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := m1.Submit(fastSpec())
	id2, _ := m1.Submit(fastSpec())
	waitState(t, m1, id1, StateQueued) // preempted by job 2's admission turn
	if err := m1.Pause(id1); err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, id1, StatePaused)
	waitState(t, m1, id2, StateDone)
	m1.Close()

	m2, err := Open(workerConfig(t, Config{Dir: dir, Capacity: 1}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	if v, _ := m2.Get(id2); v.State != StateDone {
		t.Fatalf("done job recovered as %s", v.State)
	}
	assertJobMatchesReference(t, m2, id2)
	if v, _ := m2.Get(id1); v.State != StatePaused {
		t.Fatalf("paused job recovered as %s", v.State)
	}
	if err := m2.Resume(id1); err != nil {
		t.Fatal(err)
	}
	waitState(t, m2, id1, StateDone)
	assertJobMatchesReference(t, m2, id1)

	// A terminal job's hub replays the whole stream and ends immediately.
	hub, err := m2.Hub(id2)
	if err != nil {
		t.Fatal(err)
	}
	backlog, sub := hub.Subscribe(8)
	defer sub.Close()
	if len(backlog) == 0 {
		t.Error("recovered done job has an empty backlog")
	}
	if _, open := <-sub.C(); open {
		t.Error("recovered done job's hub is not closed")
	}
}

// TestCancelReleasesWorkers cancels a running job and checks that its
// worker slots return to the pool (the queued job runs) and that no
// goroutines outlive the manager.
func TestCancelReleasesWorkers(t *testing.T) {
	base := testutil.GoroutineBaseline()
	m, err := Open(workerConfig(t, Config{Dir: t.TempDir(), Capacity: 1, Quantum: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	id2, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, id1, StateRunning)
	if err := m.Cancel(id1); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	v := waitState(t, m, id1, StateCancelled)
	if err := m.Cancel(id1); err != nil {
		t.Fatalf("cancel must be idempotent on a cancelled job: %v", err)
	}
	_ = v
	// The freed slot lets the queued job run to completion.
	waitState(t, m, id2, StateDone)
	assertJobMatchesReference(t, m, id2)
	if _, err := m.PlacementPath(id1); err == nil {
		t.Error("cancelled job serves a placement")
	}
	m.Close()
	testutil.AssertNoGoroutineLeak(t, base)
}

// TestSubmitValidation exercises the rejection paths.
func TestSubmitValidation(t *testing.T) {
	m, err := Open(workerConfig(t, Config{Dir: t.TempDir()}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for name, spec := range map[string]Spec{
		"no design":     {},
		"both sources":  {Design: "tiny_hot", Payload: "x"},
		"unknown":       {Design: "no_such_design"},
		"bad mode":      {Design: "tiny_hot", Mode: "quantum"},
		"bad payload":   {Payload: "not a design"},
		"neg workers":   {Design: "tiny_hot", Workers: -1},
		"huge priority": {Design: "tiny_hot", Priority: 10_000},
		"huge grid":     {Design: "tiny_hot", GridHint: maxGridHint + 1},
		"huge wl iters": {Design: "tiny_hot", MaxWLIters: maxWLIters + 1},
		"huge riters":   {Design: "tiny_hot", MaxRouteIters: maxRouteIters + 1},
		"huge steps":    {Design: "tiny_hot", StepsPerRouteIter: maxStepsPerRouteIter + 1},
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("%s: submit accepted %+v", name, spec)
		}
	}
	if err := m.Pause("j9999"); err != ErrNoSuchJob {
		t.Errorf("pause unknown = %v, want ErrNoSuchJob", err)
	}
}

func TestTruncateTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	content := []byte("{\"seq\":0}\n{\"seq\":1}\n{\"seq\":2}\n{\"seq\":3")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	lines, changed, err := truncateTrace(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("a real truncation must report changed")
	}
	if len(lines) != 2 || string(lines[1]) != "{\"seq\":1}\n" {
		t.Fatalf("kept lines = %q", lines)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "{\"seq\":0}\n{\"seq\":1}\n" {
		t.Fatalf("file after truncation = %q", got)
	}
	// Re-truncating to the same length is a no-op — the supervisor keeps
	// the live hub (and its SSE subscribers) in that case.
	if _, changed, err = truncateTrace(path, 2); err != nil || changed {
		t.Fatalf("no-op truncation: changed=%v err=%v", changed, err)
	}
	// Asking for more lines than exist is the inconsistent-state signal.
	if _, _, err := truncateTrace(path, 5); err == nil {
		t.Fatal("truncateTrace accepted a short trace")
	}
	// n equal to the complete-line count with a torn tail still truncates.
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := truncateTrace(path, 3); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "{\"seq\":0}\n{\"seq\":1}\n{\"seq\":2}\n" {
		t.Fatalf("torn tail survived: %q", got)
	}
}
