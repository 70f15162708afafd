package main

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// TestMain doubles the test binary as the placer: a child started with
// argv[0] "placer" runs the command instead of the tests, so the tests
// drive the real CLI — flags, files and exit codes — in separate processes
// without a prebuilt binary.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "placer" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// placer runs the command with args in dir and fails the test unless it
// exits with code want.
func placer(t *testing.T, dir string, want int, args ...string) {
	t.Helper()
	p := testutil.Start(t, dir, "placer", args...)
	if code := p.Wait(t); code != want {
		t.Fatalf("placer %v exited %d, want %d; output:\n%s", args, code, want, p.Output())
	}
}

func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// canon is the trace with its wall-clock content stripped, as
// tracereport -canon prints it.
func canon(t *testing.T, trace []byte) []byte {
	t.Helper()
	c, err := telemetry.StripTimings(trace)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestResumeAcrossProcesses is the checkpoint/resume contract through the
// CLI on tiny_hot. A run stopped at route_iter:1 and resumed in a second
// process places exactly as the uninterrupted run, and the two trace halves
// concatenate to its canonical trace. A primary checkpoint with one flipped
// byte falls back to the rotated .prev and still places the same; with no
// .prev to fall back to, the corrupt checkpoint exits 4.
func TestResumeAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs in child processes; skipped in -short")
	}
	dir := t.TempDir()
	design := []string{"-design", "tiny_hot", "-mode", "ours"}
	with := func(args ...string) []string { return append(append([]string(nil), design...), args...) }

	placer(t, dir, 0, with("-workers", "2", "-trace", "full.jsonl", "-out", "full.place")...)
	placer(t, dir, 0, with("-workers", "2", "-checkpoint", "run.ckpt",
		"-checkpoint-after", "route_iter:1", "-trace", "part1.jsonl")...)
	placer(t, dir, 0, with("-workers", "1", "-checkpoint", "run.ckpt", "-resume",
		"-trace", "part2.jsonl", "-out", "resumed.place")...)
	full := readFile(t, dir, "full.place")
	if !bytes.Equal(readFile(t, dir, "resumed.place"), full) {
		t.Error("resumed placement differs from the uninterrupted one")
	}
	want := canon(t, readFile(t, dir, "full.jsonl"))
	if got := canon(t, append(readFile(t, dir, "part1.jsonl"), readFile(t, dir, "part2.jsonl")...)); !bytes.Equal(got, want) {
		t.Error("concatenated canonical trace differs from the uninterrupted one")
	}

	// Two scheduled writes to one path leave run2.ckpt (route_iter:2) and
	// the rotated run2.ckpt.prev (route_iter:1).
	placer(t, dir, 0, with("-workers", "2", "-checkpoint", "run2.ckpt", "-checkpoint-after", "route_iter:1")...)
	placer(t, dir, 0, with("-workers", "2", "-checkpoint", "run2.ckpt", "-checkpoint-after", "route_iter:2", "-resume")...)
	if _, err := os.Stat(filepath.Join(dir, "run2.ckpt.prev")); err != nil {
		t.Fatalf("no rotated checkpoint: %v", err)
	}
	corrupt := readFile(t, dir, "run2.ckpt")
	corrupt[len(corrupt)/2] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, "run2.ckpt"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	placer(t, dir, 0, with("-workers", "1", "-checkpoint", "run2.ckpt", "-resume", "-out", "fallback.place")...)
	if !bytes.Equal(readFile(t, dir, "fallback.place"), full) {
		t.Error("placement resumed from the .prev fallback differs from the uninterrupted one")
	}

	if err := os.WriteFile(filepath.Join(dir, "solo.ckpt"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	placer(t, dir, 4, with("-checkpoint", "solo.ckpt", "-resume")...)
}

// TestRemovedFlagIsUsageError: -ml-warm-start was removed; passing it is a
// usage error, not a silently ignored option.
func TestRemovedFlagIsUsageError(t *testing.T) {
	placer(t, t.TempDir(), 2, "-design", "tiny_hot", "-levels", "2", "-ml-warm-start")
}

// TestServeKeepsTraceCanonical is the live-dashboard contract through the
// CLI on tiny_hot. placer -serve serves the page, streams the run over SSE
// until the eof marker and then the latest congestion heatmap as a PNG; the
// trace it writes is canonically identical to a plain run's, and after the
// run it serves on until SIGTERM ends it with exit 0.
func TestServeKeepsTraceCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs in child processes; skipped in -short")
	}
	dir := t.TempDir()
	design := []string{"-design", "tiny_hot", "-mode", "ours", "-workers", "2"}
	with := func(args ...string) []string { return append(append([]string(nil), design...), args...) }

	placer(t, dir, 0, with("-trace", "ref.jsonl")...)
	p := testutil.Start(t, dir, "placer", with("-trace", "live.jsonl", "-serve", "127.0.0.1:0")...)
	url := p.URL(t)
	if page := testutil.Get(t, url+"/"); !bytes.Contains(page, []byte("EventSource")) {
		t.Error("dashboard page has no EventSource")
	}
	// The stream follows the run and ends once the finished run closes it.
	events := testutil.Get(t, url+"/events")
	if !bytes.Contains(events, []byte(`data: {"seq"`)) {
		t.Error("event stream carries no trace events")
	}
	if !bytes.HasSuffix(events, []byte("event: eof\ndata: {}\n\n")) {
		t.Errorf("event stream does not end with the eof marker: ...%q", events[max(0, len(events)-80):])
	}
	if heat := testutil.Get(t, url+"/heatmap"); !bytes.HasPrefix(heat, []byte("\x89PNG\r\n\x1a\n")) {
		t.Error("/heatmap is not a PNG")
	}
	p.WaitLine(t, "run complete")
	if err := p.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := p.Wait(t); code != 0 {
		t.Errorf("placer -serve exited %d on SIGTERM, want 0; output:\n%s", code, p.Output())
	}
	if !bytes.Equal(canon(t, readFile(t, dir, "live.jsonl")), canon(t, readFile(t, dir, "ref.jsonl"))) {
		t.Error("canonical trace written under -serve differs from the plain run's")
	}
}
