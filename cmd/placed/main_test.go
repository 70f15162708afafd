package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/designio"
	"repro/internal/jobs"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// TestMain doubles the test binary as the daemon: a child started with
// argv[0] "placed" runs the command, and the daemon's own re-execution of
// its binary with -worker runs the hidden worker mode, as main dispatches
// it.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "placed" || len(os.Args) > 1 && os.Args[1] == "-worker" {
		main()
	}
	os.Exit(m.Run())
}

// TestDaemonKillMigratesJob SIGKILLs the daemon once its fft_1 job has
// written its first migration checkpoint and starts a new daemon over the
// same -state. The adopted job must finish in at least two segments with
// the placement and canonical trace of a plain run, and the new daemon
// must drain and exit 0 on SIGTERM.
func TestDaemonKillMigratesJob(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon and placement run in child processes; skipped in -short")
	}
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	args := []string{"-addr", "127.0.0.1:0", "-state", state, "-capacity", "2"}

	first := testutil.Start(t, dir, "placed", args...)
	resp, err := http.Post(first.URL(t)+"/jobs", "application/json",
		strings.NewReader(`{"design":"fft_1","workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, resp.Body)
	resp.Body.Close()
	ckpt := filepath.Join(state, job.ID, "run.ckpt")
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared; output:\n%s", first.Output())
		}
	}
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.Wait(t)

	second := testutil.Start(t, dir, "placed", args...)
	url := second.URL(t) + "/jobs/" + job.ID
	for deadline := time.Now().Add(time.Minute); job.State != jobs.StateDone; time.Sleep(5 * time.Millisecond) {
		job = decodeJob(t, bytes.NewReader(testutil.Get(t, url)))
		if job.State.Terminal() && job.State != jobs.StateDone || time.Now().After(deadline) {
			t.Fatalf("adopted job is %s (%s); output:\n%s", job.State, job.Error, second.Output())
		}
	}
	if job.Segments < 2 {
		t.Errorf("job finished in %d segment(s); the kill never interrupted it", job.Segments)
	}
	wantPlace, wantCanon := plainRun(t, "fft_1")
	if !bytes.Equal(testutil.Get(t, url+"/placement"), wantPlace) {
		t.Error("migrated job's placement differs from the plain run's")
	}
	gotCanon, err := telemetry.StripTimings(testutil.Get(t, url+"/trace"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCanon, wantCanon) {
		t.Error("migrated job's canonical trace differs from the plain run's")
	}
	if err := second.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := second.Wait(t); code != 0 {
		t.Errorf("placed exited %d on SIGTERM, want 0; output:\n%s", code, second.Output())
	}
}

func decodeJob(t *testing.T, r io.Reader) jobs.JobView {
	t.Helper()
	var v jobs.JobView
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return v
}

// plainRun places design as `placer -mode ours -trace t -out p` does and
// returns the placement and the canonical trace.
func plainRun(t *testing.T, design string) (placement, canon []byte) {
	t.Helper()
	d := synth.MustGenerate(design)
	var trace, place bytes.Buffer
	obs := telemetry.NewObserver(&trace)
	opt := core.Options{Mode: core.ModeOurs, Tech: core.AllTechniques(), Workers: 2, Observer: obs}
	if _, err := core.PlaceContext(context.Background(), d, opt); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := designio.Write(&place, d); err != nil {
		t.Fatal(err)
	}
	canon, err := telemetry.StripTimings(trace.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return place.Bytes(), canon
}

// TestRemovedFlagsAreUsageErrors: -inject and -inject-seed were removed
// (tests arm worker faults through jobs.Config.FaultSpecs); passing either
// is a usage error.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, flag := range [][]string{{"-inject", "worker_crash:1"}, {"-inject-seed", "1"}} {
		p := testutil.Start(t, dir, "placed", append([]string{"-addr", "127.0.0.1:0", "-state", dir}, flag...)...)
		if code := p.Wait(t); code != 2 {
			t.Errorf("placed %s exited %d, want 2; output:\n%s", flag[0], code, p.Output())
		}
	}
}
