package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// TestMain doubles the test binary as the dashboard: a child started with
// argv[0] "dashboard" runs the command instead of the tests.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "dashboard" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestReplayDiffPanel replays two traces of one tiny_hot run, placed at one
// and at two workers: the A/B page must report no deterministic drift.
func TestReplayDiffPanel(t *testing.T) {
	if testing.Short() {
		t.Skip("places tiny_hot twice and serves from a child process; skipped in -short")
	}
	dir := t.TempDir()
	for _, w := range []int{1, 2} {
		var trace bytes.Buffer
		obs := telemetry.NewObserver(&trace)
		opt := core.Options{Mode: core.ModeOurs, Tech: core.AllTechniques(), Workers: w, Observer: obs}
		if _, err := core.Place(synth.MustGenerate("tiny_hot"), opt); err != nil {
			t.Fatal(err)
		}
		if err := obs.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("w%d.jsonl", w)), trace.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := testutil.Start(t, dir, "dashboard", "-addr", "127.0.0.1:0", "w1.jsonl", "w2.jsonl")
	if page := testutil.Get(t, p.URL(t)+"/"); !bytes.Contains(page, []byte("Deterministic drift: NONE")) {
		t.Error("A/B replay page does not report zero deterministic drift")
	}
}
