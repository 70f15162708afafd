package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/guard/inject"
	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// The chaos suite: deterministic fault injection against the guard layer.
// Every test here is driven by a seed-fixed inject.Registry, so a failure
// reproduces exactly — rerun the one test, no flakes to chase. check.sh
// (CI's check job) runs the whole suite under -race with `go test -race ./...`.

// chaosOpts is fastOpts plus a guard configuration and an armed injector.
func chaosOpts(pol guard.Policy, inj *inject.Registry) Options {
	opt := fastOpts(ModeOurs)
	opt.Workers = 1
	opt.Guard = guard.Config{Policy: pol}
	opt.FaultInjector = inj
	return opt
}

// chaosRun places design with the given options and returns the result, the
// final positions and the canonical trace.
func chaosRun(t *testing.T, design string, opt Options) (*Result, []float64, []byte) {
	t.Helper()
	d := synth.MustGenerate(design)
	var trace bytes.Buffer
	obs := telemetry.NewObserver(&trace)
	opt.Observer = obs
	res, err := Place(d, opt)
	if err != nil {
		t.Fatalf("guarded run failed: %v", err)
	}
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}
	pos := make([]float64, 0, 2*len(d.Cells))
	for i := range d.Cells {
		pos = append(pos, d.Cells[i].X, d.Cells[i].Y)
	}
	canon, err := telemetry.StripTimings(trace.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return res, pos, canon
}

// metricValue digs one metric out of an observer snapshot (-1 if absent).
func metricValue(obs *telemetry.Observer, name string) float64 {
	for _, m := range obs.Metrics.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// TestChaosRecoverFromInjectedNaN is the tentpole acceptance test: a NaN
// injected into the WA gradient mid-run under policy Recover must be
// detected, rolled back and retried, and the run must still complete a
// placement with finite in-die positions — byte-identically at any worker
// count, because every guard decision is a pure function of deterministic
// values.
func TestChaosRecoverFromInjectedNaN(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	const seed, evalIdx = 42, 10
	run := func(t *testing.T, workers int) (*Result, []float64, []byte, *inject.Registry) {
		inj := inject.New(seed).Arm(inject.WAGradNaN, evalIdx)
		opt := chaosOpts(guard.Recover, inj)
		opt.Workers = workers
		res, pos, trace := chaosRun(t, "tiny_hot", opt)
		return res, pos, trace, inj
	}
	refRes, refPos, refTrace, refInj := run(t, 1)
	if got := refInj.Fired(inject.WAGradNaN); got != 1 {
		t.Fatalf("WA-gradient fault fired %d times, want exactly 1", got)
	}
	d := synth.MustGenerate("tiny_hot")
	for i, v := range refPos {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("recovered run left non-finite coordinate %d: %v", i, v)
		}
	}
	for i := 0; i < len(refPos); i += 2 {
		if refPos[i] < d.Die.Lo.X || refPos[i] > d.Die.Hi.X ||
			refPos[i+1] < d.Die.Lo.Y || refPos[i+1] > d.Die.Hi.Y {
			t.Fatalf("recovered run left cell %d outside die: (%v,%v)", i/2, refPos[i], refPos[i+1])
		}
	}

	// The recovery must actually have happened (counter in the trace) and
	// the run must report success.
	if !bytes.Contains(refTrace, []byte("guard.recoveries")) {
		t.Errorf("trace carries no guard.recoveries metric")
	}
	if refRes.HPWLFinal <= 0 {
		t.Errorf("recovered run reports HPWL %v", refRes.HPWLFinal)
	}

	for _, w := range []int{4, 16} {
		res, pos, trace, inj := run(t, w)
		if inj.Fired(inject.WAGradNaN) != 1 {
			t.Fatalf("workers=%d: fault fired %d times, want 1", w, inj.Fired(inject.WAGradNaN))
		}
		for i := range refPos {
			if math.Float64bits(pos[i]) != math.Float64bits(refPos[i]) {
				t.Fatalf("workers=%d: recovered coordinate %d differs bitwise (%v vs %v)",
					w, i, pos[i], refPos[i])
			}
		}
		if res.HPWLFinal != refRes.HPWLFinal || res.Metrics != refRes.Metrics {
			t.Errorf("workers=%d: recovered result differs:\n  serial: %+v\n  got:    %+v",
				w, refRes.Metrics, res.Metrics)
		}
		if !bytes.Equal(trace, refTrace) {
			a := strings.Split(string(refTrace), "\n")
			b := strings.Split(string(trace), "\n")
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: recovered traces diverge at line %d:\n  serial: %.200s\n  got:    %.200s",
						w, i+1, a[i], b[i])
				}
			}
			t.Fatalf("workers=%d: recovered traces differ in length", w)
		}
	}
}

// TestChaosPoissonBinRecovery: a +Inf poisoned into a charge-density bin
// propagates through the spectral solve into every field value; Recover must
// roll it back and complete.
func TestChaosPoissonBinRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement run; skipped in -short")
	}
	inj := inject.New(7).Arm(inject.PoissonBin, 12)
	_, pos, _ := chaosRun(t, "tiny_hot", chaosOpts(guard.Recover, inj))
	if inj.Fired(inject.PoissonBin) != 1 {
		t.Fatalf("Poisson fault fired %d times, want 1", inj.Fired(inject.PoissonBin))
	}
	for i, v := range pos {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite coordinate %d after recovery: %v", i, v)
		}
	}
}

// TestChaosFailPolicyReturnsViolation: under Fail the first sentinel hit is
// a typed error, not a crash and not a silent continuation.
func TestChaosFailPolicyReturnsViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement run; skipped in -short")
	}
	inj := inject.New(42).Arm(inject.WAGradNaN, 10)
	d := synth.MustGenerate("tiny_hot")
	_, err := Place(d, chaosOpts(guard.Fail, inj))
	if !errors.Is(err, guard.ErrViolation) {
		t.Fatalf("Fail policy returned %v, want guard.ErrViolation", err)
	}
	if errors.Is(err, guard.ErrBudgetExhausted) {
		t.Errorf("Fail policy error claims budget exhaustion: %v", err)
	}
}

// TestChaosRetryBudgetExhausted: MaxRetries < 0 resolves to a zero budget,
// so the first violation under Recover exhausts it.
func TestChaosRetryBudgetExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement run; skipped in -short")
	}
	inj := inject.New(42).Arm(inject.WAGradNaN, 10)
	opt := chaosOpts(guard.Recover, inj)
	opt.Guard.MaxRetries = -1
	d := synth.MustGenerate("tiny_hot")
	_, err := Place(d, opt)
	if !errors.Is(err, guard.ErrBudgetExhausted) {
		t.Fatalf("zero-budget Recover returned %v, want guard.ErrBudgetExhausted", err)
	}
}

// TestChaosWarnMatchesOffBitwise: the sentinel scans are read-only — a Warn
// run with no faults armed must land on exactly the positions of an
// unguarded run.
func TestChaosWarnMatchesOffBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	_, offPos, _ := chaosRun(t, "tiny_hot", chaosOpts(guard.Off, nil))
	_, warnPos, _ := chaosRun(t, "tiny_hot", chaosOpts(guard.Warn, nil))
	for i := range offPos {
		if math.Float64bits(offPos[i]) != math.Float64bits(warnPos[i]) {
			t.Fatalf("warn-policy scan perturbed coordinate %d: %v vs %v", i, warnPos[i], offPos[i])
		}
	}
}

// TestChaosGuardOffRegistersNoMetrics: with guards off the metrics registry
// must not even contain the guard counters — registering one changes the
// flushed trace, and Off-policy traces are contractually byte-identical to
// pre-guard builds.
func TestChaosGuardOffRegistersNoMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	d := synth.MustGenerate("tiny_open")
	obs := telemetry.NewObserver(nil)
	opt := chaosOpts(guard.Off, nil)
	opt.Observer = obs
	if _, err := Place(d, opt); err != nil {
		t.Fatal(err)
	}
	for _, m := range obs.Metrics.Snapshot() {
		if strings.HasPrefix(m.Name, "guard.") {
			t.Errorf("guards-off run registered metric %q", m.Name)
		}
	}

	d2 := synth.MustGenerate("tiny_open")
	obs2 := telemetry.NewObserver(nil)
	opt2 := chaosOpts(guard.Warn, nil)
	opt2.Observer = obs2
	if _, err := Place(d2, opt2); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(obs2, "guard.violations"); got != 0 {
		t.Errorf("clean warn run guard.violations = %v, want registered at 0", got)
	}
}

// TestChaosCheckpointCorruptDetected: a byte flipped in the checkpoint right
// after it is written must be caught by the CRC on resume as
// ErrCheckpointCorrupt (no .prev exists here, so the typed error surfaces).
func TestChaosCheckpointCorruptDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement run; skipped in -short")
	}
	ckPath := filepath.Join(t.TempDir(), "chaos.ckpt")
	inj := inject.New(3).Arm(inject.CkptCorrupt, 0)
	d := synth.MustGenerate("tiny_hot")
	opt := chaosOpts(guard.Off, inj)
	opt.CheckpointPath = ckPath
	opt.CheckpointAfter = "wirelength"
	if _, err := Place(d, opt); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("scheduled checkpoint run returned %v", err)
	}
	if inj.Fired(inject.CkptCorrupt) != 1 {
		t.Fatalf("corruption fault fired %d times, want 1", inj.Fired(inject.CkptCorrupt))
	}
	d2 := synth.MustGenerate("tiny_hot")
	_, err := ResumeFromFile(context.Background(), d2, ckPath, Options{Workers: 1})
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("resume from corrupted checkpoint returned %v, want ErrCheckpointCorrupt", err)
	}
}

// TestChaosCheckpointTruncateDetected: same contract for a truncated file.
func TestChaosCheckpointTruncateDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement run; skipped in -short")
	}
	ckPath := filepath.Join(t.TempDir(), "chaos.ckpt")
	inj := inject.New(9).Arm(inject.CkptTruncate, 0)
	d := synth.MustGenerate("tiny_hot")
	opt := chaosOpts(guard.Off, inj)
	opt.CheckpointPath = ckPath
	opt.CheckpointAfter = "wirelength"
	if _, err := Place(d, opt); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("scheduled checkpoint run returned %v", err)
	}
	d2 := synth.MustGenerate("tiny_hot")
	_, err := ResumeFromFile(context.Background(), d2, ckPath, Options{Workers: 1})
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("resume from truncated checkpoint returned %v, want ErrCheckpointCorrupt", err)
	}
}

// TestChaosCorruptPrimaryFallsBackToPrev is the rotation acceptance test:
// two checkpoint writes to the same path leave a ".prev"; corrupting the
// primary right after the second write must make ResumeFromFile fall back to
// the rotated previous checkpoint and still complete byte-identical to an
// uninterrupted run.
func TestChaosCorruptPrimaryFallsBackToPrev(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	_, refPos, _ := placeRun(t, "tiny_hot", 1)

	ckPath := filepath.Join(t.TempDir(), "rot.ckpt")
	d := synth.MustGenerate("tiny_hot")
	opt := fastOpts(ModeOurs)
	opt.Workers = 1
	opt.CheckpointPath = ckPath
	opt.CheckpointAfter = "route_iter:1"
	if _, err := Place(d, opt); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("first checkpoint run returned %v", err)
	}

	// Resume to the next scheduled point with the corruption fault armed on
	// this run's first write: the write rotates the route_iter:1 state to
	// .prev, then the primary (route_iter:2) gets one byte flipped.
	inj := inject.New(5).Arm(inject.CkptCorrupt, 0)
	d2 := synth.MustGenerate("tiny_hot")
	opt2 := Options{Workers: 1, CheckpointPath: ckPath, CheckpointAfter: "route_iter:2",
		FaultInjector: inj}
	if _, err := ResumeFromFile(context.Background(), d2, ckPath, opt2); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("second checkpoint run returned %v", err)
	}
	if _, err := os.Stat(ckPath + ".prev"); err != nil {
		t.Fatalf("no rotated .prev after second write: %v", err)
	}
	if _, err := readCheckpointFile(ckPath); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("primary not corrupted as armed: %v", err)
	}

	// Final resume: primary rejected by CRC, .prev (route_iter:1) accepted,
	// run completes and must land bit-for-bit on the uninterrupted placement.
	d3 := synth.MustGenerate("tiny_hot")
	if _, err := ResumeFromFile(context.Background(), d3, ckPath, Options{Workers: 1}); err != nil {
		t.Fatalf("resume with .prev fallback failed: %v", err)
	}
	for i := range d3.Cells {
		if math.Float64bits(d3.Cells[i].X) != math.Float64bits(refPos[2*i]) ||
			math.Float64bits(d3.Cells[i].Y) != math.Float64bits(refPos[2*i+1]) {
			t.Fatalf("cell %d after fallback resume (%v,%v) differs from uninterrupted (%v,%v)",
				i, d3.Cells[i].X, d3.Cells[i].Y, refPos[2*i], refPos[2*i+1])
		}
	}
}

// TestChaosCancelInjection: the deterministic cancel fault must behave
// exactly like a real context cancellation — typed error, checkpoint on
// disk, byte-identical completion after resume — and leak no goroutines.
func TestChaosCancelInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	_, refPos, _ := placeRun(t, "tiny_hot", 1)
	baseline := testutil.GoroutineBaseline()

	ckPath := filepath.Join(t.TempDir(), "cancel.ckpt")
	inj := inject.New(11).Arm(inject.Cancel, 20)
	d := synth.MustGenerate("tiny_hot")
	opt := chaosOpts(guard.Recover, inj)
	opt.Workers = 2 // exercise the parallel kernels' shutdown path
	opt.CheckpointPath = ckPath
	_, err := PlaceContext(context.Background(), d, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel injection returned %v, want context.Canceled", err)
	}
	if inj.Fired(inject.Cancel) != 1 {
		t.Fatalf("cancel fault fired %d times, want 1", inj.Fired(inject.Cancel))
	}

	d2 := synth.MustGenerate("tiny_hot")
	if _, err := ResumeFromFile(context.Background(), d2, ckPath, Options{Workers: 1}); err != nil {
		t.Fatalf("resume after injected cancel: %v", err)
	}
	for i := range d2.Cells {
		if math.Float64bits(d2.Cells[i].X) != math.Float64bits(refPos[2*i]) ||
			math.Float64bits(d2.Cells[i].Y) != math.Float64bits(refPos[2*i+1]) {
			t.Fatalf("cell %d after injected-cancel resume differs bitwise from uninterrupted", i)
		}
	}

	testutil.AssertNoGoroutineLeak(t, baseline)
}

// TestDegenerateDesignsRejected: the pipeline entry must refuse designs it
// cannot place with a typed error, not fail obscurely downstream.
func TestDegenerateDesignsRejected(t *testing.T) {
	cases := map[string]func() error{
		"no movable cells": func() error {
			d := synth.MustGenerate("tiny_open")
			for i := range d.Cells {
				d.Cells[i].Kind = netlist.Macro
			}
			_, err := Place(d, fastOpts(ModeOurs))
			return err
		},
		"all singleton nets": func() error {
			d := synth.MustGenerate("tiny_open")
			for ni := range d.Nets {
				if len(d.Nets[ni].Pins) > 1 {
					d.Nets[ni].Pins = d.Nets[ni].Pins[:1]
				}
			}
			_, err := Place(d, fastOpts(ModeOurs))
			return err
		},
		"zero-area die": func() error {
			d := synth.MustGenerate("tiny_open")
			d.Die.Hi = d.Die.Lo
			_, err := Place(d, fastOpts(ModeOurs))
			return err
		},
		"guarded entry rejects too": func() error {
			d := synth.MustGenerate("tiny_open")
			for i := range d.Cells {
				d.Cells[i].Kind = netlist.Macro
			}
			opt := fastOpts(ModeOurs)
			opt.Guard = guard.Config{Policy: guard.Recover}
			_, err := Place(d, opt)
			return err
		},
	}
	for name, run := range cases {
		if err := run(); !errors.Is(err, ErrDegenerateDesign) {
			t.Errorf("%s: got %v, want ErrDegenerateDesign", name, err)
		}
	}
}
