package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/designio"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/testutil"
)

// statValue digs one metric out of a Stats snapshot.
func statValue(t *testing.T, m *Manager, name string) float64 {
	t.Helper()
	for _, s := range m.Stats() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("metric %q missing from Stats()", name)
	return 0
}

// TestInjectedCrashResumeIsByteExact is the tentpole contract, driven
// deterministically: the worker is armed to die abruptly (os.Exit with no
// flush — the in-process stand-in for kill -9) at two stage boundaries. The
// supervisor must restart it from the last CRC-verified checkpoint each
// time, and the final placement and canonical trace must be byte-identical
// to an uninterrupted plain run — at every worker-budget setting.
func TestInjectedCrashResumeIsByteExact(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m, err := Open(workerConfig(t, Config{
				Dir:        t.TempDir(),
				Capacity:   16,
				FaultSpecs: []string{"worker_crash:1", "worker_crash:3"},
				FaultSeed:  1,
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			spec := fastSpec()
			spec.Workers = workers
			id, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			v := waitState(t, m, id, StateDone)
			if v.Restarts != 2 {
				t.Errorf("job survived %d restarts, want 2 (one per armed crash)", v.Restarts)
			}
			assertJobMatchesReference(t, m, id)
			if got := statValue(t, m, "supervise.restarts"); got != 2 {
				t.Errorf("supervise.restarts = %v, want 2", got)
			}
		})
	}
}

// TestKill9IsByteExactAndIsolated delivers real SIGKILLs — no injection, no
// cooperation from the victim — to one job's workers, twice, while an
// unrelated job runs alongside it. The killed job must auto-resume from its
// last checkpoint and still match the plain run byte-for-byte; the
// bystander must be untouched (one segment, no restarts) and match too.
func TestKill9IsByteExactAndIsolated(t *testing.T) {
	base := testutil.GoroutineBaseline()
	m, err := Open(workerConfig(t, Config{Dir: t.TempDir(), Capacity: 2}))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}

	// Kill the victim's live worker each time a new one appears, up to two
	// kills. The job may outrun the second kill on a fast machine; assert on
	// the kills that actually landed.
	kills := 0
	lastPID := 0
	deadline := time.Now().Add(60 * time.Second)
	for kills < 2 && time.Now().Before(deadline) {
		v, err := m.Get(victim)
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			break
		}
		if v.WorkerPID != 0 && v.WorkerPID != lastPID {
			lastPID = v.WorkerPID
			if syscall.Kill(v.WorkerPID, syscall.SIGKILL) == nil {
				kills++
			}
		}
		time.Sleep(time.Millisecond)
	}
	if kills == 0 {
		t.Fatal("never caught a worker PID to kill")
	}

	v := waitState(t, m, victim, StateDone)
	if v.Restarts != kills {
		t.Errorf("victim restarted %d times after %d kills", v.Restarts, kills)
	}
	assertJobMatchesReference(t, m, victim)

	b := waitState(t, m, bystander, StateDone)
	if b.Restarts != 0 || b.Segments != 1 {
		t.Errorf("bystander perturbed: %d restarts, %d segments (want 0 and 1)",
			b.Restarts, b.Segments)
	}
	assertJobMatchesReference(t, m, bystander)
	m.Close()
	testutil.AssertNoGoroutineLeak(t, base)
}

// TestStalledWorkerIsKilledAndResumed wedges the worker (it stops
// heartbeating and blocks forever at a boundary), so the exit path never
// runs: only the supervisor's stall detector can reap it. The job must
// still finish byte-exact.
func TestStalledWorkerIsKilledAndResumed(t *testing.T) {
	m, err := Open(workerConfig(t, Config{
		Dir: t.TempDir(),
		// Generous relative to the 5ms test heartbeat: a healthy-but-slow
		// worker (race detector, loaded CI) must never be declared stalled.
		StallTimeout: 2 * time.Second,
		FaultSpecs:   []string{"worker_stall:2"},
		FaultSeed:    1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, m, id, StateDone)
	if v.Restarts != 1 {
		t.Errorf("stalled job restarted %d times, want 1", v.Restarts)
	}
	assertJobMatchesReference(t, m, id)
	if got := statValue(t, m, "supervise.stalls"); got != 1 {
		t.Errorf("supervise.stalls = %v, want 1", got)
	}
}

// TestPoisonedJobIsQuarantined arms a crash at every early boundary so the
// job keeps killing its workers; once the retry budget is spent the
// supervisor must quarantine it as failed(poisoned) instead of restarting
// forever.
func TestPoisonedJobIsQuarantined(t *testing.T) {
	m, err := Open(workerConfig(t, Config{
		Dir:         t.TempDir(),
		RetryBudget: 1,
		FaultSpecs:  []string{"worker_crash:0", "worker_crash:1", "worker_crash:2"},
		FaultSeed:   1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, m, id, StateFailed)
	if !v.Poisoned {
		t.Errorf("failed job not marked poisoned: %+v", v)
	}
	if !strings.Contains(v.Error, "poisoned") {
		t.Errorf("error %q does not name the quarantine", v.Error)
	}
	if v.Restarts != 2 {
		t.Errorf("restarts = %d, want 2 (budget 1 + the poisoning crash)", v.Restarts)
	}
	if got := statValue(t, m, "supervise.quarantines"); got != 1 {
		t.Errorf("supervise.quarantines = %v, want 1", got)
	}
}

// overfullPayload is an inline design whose movable cells cannot all fit
// its rows: 40 chained cells of 8 sites each on a die of 4 rows × 64 sites.
func overfullPayload(t testing.TB) string {
	t.Helper()
	b := netlist.NewBuilder("overfull", geom.NewRect(0, 0, 64, 32), 8, 1)
	for i := 0; i < 40; i++ {
		b.AddCell(fmt.Sprintf("c%d", i), netlist.StdCell, 32, 16, 8, 8)
	}
	for i := 1; i < 40; i++ {
		n := b.AddNet(fmt.Sprintf("n%d", i), 1)
		b.Connect(i-1, n, 0, 0)
		b.Connect(i, n, 0, 0)
	}
	var buf bytes.Buffer
	if err := designio.Write(&buf, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestNoRoomFailureIsNotRetried: legalization finds no room on an overfull
// die. That failure is deterministic, so the supervisor must fail the job
// at once — no restart, no quarantine — with the legalizer's message.
func TestNoRoomFailureIsNotRetried(t *testing.T) {
	m, err := Open(workerConfig(t, Config{Dir: t.TempDir()}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Submit(Spec{Payload: overfullPayload(t), Mode: "xplace", MaxWLIters: 2, MaxRouteIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, m, id, StateFailed)
	if v.Restarts != 0 || v.Poisoned {
		t.Errorf("restarts = %d, poisoned = %v; want 0, false", v.Restarts, v.Poisoned)
	}
	if !strings.Contains(v.Error, "no room for cell") {
		t.Errorf("error %q does not name the legalization failure", v.Error)
	}
}

// TestAdmissionShedsWhenQueueFull pins the queue-cap path: with one slot
// busy and the queue at its cap, Submit must shed with ErrOverloaded (not
// block, not grow the queue) and /readyz must report not-ready.
func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	m, err := Open(workerConfig(t, Config{Dir: t.TempDir(), Capacity: 1, MaxQueued: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if ok, _ := m.Ready(); !ok {
		t.Fatal("fresh manager not ready")
	}
	if _, err := m.Submit(fastSpec()); err != nil { // runs immediately
		t.Fatal(err)
	}
	if _, err := m.Submit(fastSpec()); err != nil { // fills the queue
		t.Fatal(err)
	}
	_, err = m.Submit(fastSpec())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap submit = %v, want ErrOverloaded", err)
	}
	if ok, reason := m.Ready(); ok || !strings.Contains(reason, "overloaded") {
		t.Errorf("Ready() = %v %q with a full queue", ok, reason)
	}
	if got := statValue(t, m, "supervise.shed_requests"); got != 1 {
		t.Errorf("supervise.shed_requests = %v, want 1", got)
	}
}

// TestStateDirWriteFailureIsTyped injects a disk fault under the durability
// path: Submit must surface it as ErrStateDir (the HTTP layer's 503), and
// the failed job must not linger half-registered.
func TestStateDirWriteFailureIsTyped(t *testing.T) {
	m, err := Open(workerConfig(t, Config{Dir: t.TempDir()}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	injectWriteErr = func(path string) error {
		if strings.HasSuffix(path, "job.json") {
			return errors.New("injected: no space left on device")
		}
		return nil
	}
	defer func() { injectWriteErr = nil }()
	_, err = m.Submit(fastSpec())
	if !errors.Is(err, ErrStateDir) {
		t.Fatalf("submit with a sick state dir = %v, want ErrStateDir", err)
	}
	injectWriteErr = nil
	// The state dir healed; the manager must accept work again.
	id, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	waitState(t, m, id, StateDone)
	assertJobMatchesReference(t, m, id)
}
