package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// mlOpts is fastOpts with the multilevel flow enabled.
func mlOpts(levels int) Options {
	opt := fastOpts(ModeOurs)
	opt.Levels = levels
	return opt
}

// mlPlaceRun places one catalog design through the multilevel flow and
// returns the result, final cell positions and canonical trace.
func mlPlaceRun(t *testing.T, design string, workers, levels int) (*Result, []float64, []byte) {
	t.Helper()
	d := synth.MustGenerate(design)
	var trace bytes.Buffer
	obs := telemetry.NewObserver(&trace)
	opt := mlOpts(levels)
	opt.Workers = workers
	opt.Observer = obs
	res, err := Place(d, opt)
	if err != nil {
		t.Fatal(err)
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

// mlResumeRun is mlPlaceRun with an interruption at the given boundary point
// (which may name a coarse level, e.g. "L1/wirelength"): the run stops at the
// scheduled checkpoint, then a fresh design and Observer resume it. The
// returned trace is the canonicalized concatenation of the two halves.
func mlResumeRun(t *testing.T, design, point string, workers, levels int) (*Result, []float64, []byte) {
	t.Helper()
	ckPath := filepath.Join(t.TempDir(), "ml.ckpt")
	var buf1 bytes.Buffer
	d := synth.MustGenerate(design)
	opt := mlOpts(levels)
	opt.Workers = workers
	opt.Observer = telemetry.NewObserver(&buf1)
	opt.CheckpointPath = ckPath
	opt.CheckpointAfter = point
	_, err := Place(d, opt)
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("Place with CheckpointAfter=%q returned %v, want ErrCheckpointed", point, err)
	}

	var buf2 bytes.Buffer
	obs2 := telemetry.NewObserver(&buf2)
	d = synth.MustGenerate(design)
	ckf, err := os.Open(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	// The resume passes Levels explicitly, as the job server's segments do:
	// a set-and-matching value must reconcile against the checkpoint.
	res, err := ResumeContext(context.Background(), d, ckf,
		Options{Workers: workers, Observer: obs2, Levels: levels})
	ckf.Close()
	if err != nil {
		t.Fatalf("resume at %q: %v", point, err)
	}
	if err := obs2.Flush(); err != nil {
		t.Fatal(err)
	}
	pos := make([]float64, 0, 2*len(d.Cells))
	for i := range d.Cells {
		pos = append(pos, d.Cells[i].X, d.Cells[i].Y)
	}
	concat := append(append([]byte(nil), buf1.Bytes()...), buf2.Bytes()...)
	canon, err := telemetry.StripTimings(concat)
	if err != nil {
		t.Fatal(err)
	}
	return res, pos, canon
}

// TestMultilevelPlaceBasic: the multilevel flow completes the full pipeline,
// produces a finite in-die placement, and runs the coarse level (visible as
// L1-prefixed stage timings in the trace).
func TestMultilevelPlaceBasic(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	res, pos, trace := mlPlaceRun(t, "tiny_hot", 0, 2)
	if res.HPWLFinal <= 0 {
		t.Errorf("HPWLFinal = %g, want > 0", res.HPWLFinal)
	}
	d := synth.MustGenerate("tiny_hot")
	for i := 0; i < len(pos); i += 2 {
		if math.IsNaN(pos[i]) || math.IsNaN(pos[i+1]) {
			t.Fatalf("cell %d has NaN position", i/2)
		}
	}
	if !bytes.Contains(trace, []byte("L1/phase1_wirelength")) {
		t.Errorf("trace carries no L1-prefixed coarse-level spans")
	}
	if !bytes.Contains(trace, []byte("multilevel: 2 levels")) {
		t.Errorf("trace carries no multilevel prologue log line")
	}
	_ = d
}

// TestMultilevelIdenticalAcrossWorkerCounts extends the flat pipeline's
// acceptance test to the multilevel flow: positions, congestion history and
// the canonical trace must be byte-identical for every worker count, both
// uninterrupted and when checkpointed/resumed mid-hierarchy — at a coarse
// in-level point, at the coarse/fine transition, and inside the finest level.
func TestMultilevelIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	const design = "tiny_hot"
	const levels = 2
	refRes, refPos, refTrace := mlPlaceRun(t, design, 1, levels)

	check := func(name string, res *Result, pos []float64, trace []byte) {
		t.Helper()
		for i := range refPos {
			if math.Float64bits(pos[i]) != math.Float64bits(refPos[i]) {
				t.Fatalf("%s: cell coordinate %d differs bitwise from serial (%v vs %v)",
					name, i, pos[i], refPos[i])
			}
		}
		if res.HPWLFinal != refRes.HPWLFinal || res.WLIters != refRes.WLIters ||
			res.RouteIters != refRes.RouteIters {
			t.Errorf("%s: result summary differs from serial", name)
		}
		if len(res.CongestionHistory) != len(refRes.CongestionHistory) {
			t.Fatalf("%s: congestion history length %d != serial %d",
				name, len(res.CongestionHistory), len(refRes.CongestionHistory))
		}
		for i := range refRes.CongestionHistory {
			if math.Float64bits(res.CongestionHistory[i]) != math.Float64bits(refRes.CongestionHistory[i]) {
				t.Errorf("%s: congestion history[%d] differs from serial", name, i)
			}
		}
		if !bytes.Equal(trace, refTrace) {
			a := strings.Split(string(refTrace), "\n")
			b := strings.Split(string(trace), "\n")
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					t.Fatalf("%s: canonical traces diverge at line %d:\n  serial: %s\n  got:    %s",
						name, i+1, a[i], b[i])
				}
			}
			t.Fatalf("%s: canonical traces differ in length: %d vs %d lines", name, len(a), len(b))
		}
	}

	for _, w := range []int{2, runtime.NumCPU()} {
		res, pos, trace := mlPlaceRun(t, design, w, levels)
		check("workers", res, pos, trace)
	}
	// Resume legs at every boundary kind of the coarse level and of the
	// finest one. A coarse-level resume rebuilds the hierarchy and restores
	// mid-level (L1/setup resumes where the coarsest level spreads from
	// scratch; L1/route_iter:0 inside the loop), L1/legalize and
	// L1/detailed sit before the interpolation onto level 0, and a level-0
	// resume continues without the cluster maps, recomputing HPWLFinal
	// after detailed.
	for _, leg := range []struct {
		point   string
		workers int
	}{
		{"L1/setup", 2},
		{"L1/wirelength", 1},
		{"L1/route_iter:0", runtime.NumCPU()},
		{"L1/routability", 1},
		{"L1/legalize", 2},
		{"L1/detailed", runtime.NumCPU()},
		{"setup", 1},
		{"wirelength", 2},
		{"route_iter:0", runtime.NumCPU()},
		{"legalize", 1},
		{"detailed", 2},
	} {
		res, pos, trace := mlResumeRun(t, design, leg.point, leg.workers, levels)
		check("resume@"+leg.point, res, pos, trace)
	}
}

// TestMultilevelCheckpointInspect: a coarse-level checkpoint reports its
// hierarchy level and survives the canonical write→read round trip.
func TestMultilevelCheckpointInspect(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	ckPath := filepath.Join(t.TempDir(), "ml.ckpt")
	d := synth.MustGenerate("tiny_hot")
	opt := mlOpts(2)
	opt.CheckpointPath = ckPath
	opt.CheckpointAfter = "L1/wirelength"
	if _, err := Place(d, opt); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("Place returned %v, want ErrCheckpointed", err)
	}
	info, err := InspectCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Level != 1 {
		t.Errorf("InspectCheckpoint Level = %d, want 1", info.Level)
	}
	if info.Stage != "routability" {
		t.Errorf("InspectCheckpoint Stage = %q, want %q", info.Stage, "routability")
	}

	// Canonical round trip: rewriting the parsed checkpoint reproduces the
	// file byte for byte (the property the whole format maintains).
	raw, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := readCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !ck.ML || ck.MLLevel != 1 || ck.Opt.Levels != 2 {
		t.Fatalf("parsed multilevel record = %+v, want ML level 1 of 2", ck)
	}
	var rewritten bytes.Buffer
	if err := writeCheckpoint(&rewritten, ck); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten.Bytes(), raw) {
		t.Errorf("multilevel checkpoint is not canonical: rewrite differs from original")
	}
}

// TestMultilevelResumeOptionMismatch: resuming a flat checkpoint with Levels
// set (or a multilevel one with a different Levels) is a semantic error.
func TestMultilevelResumeOptionMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	ckPath := filepath.Join(t.TempDir(), "flat.ckpt")
	d := synth.MustGenerate("tiny_open")
	opt := fastOpts(ModeOurs)
	opt.CheckpointPath = ckPath
	opt.CheckpointAfter = "wirelength"
	if _, err := Place(d, opt); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("Place returned %v, want ErrCheckpointed", err)
	}
	d = synth.MustGenerate("tiny_open")
	ckf, err := os.Open(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ckf.Close()
	_, err = ResumeContext(context.Background(), d, ckf, Options{Levels: 2})
	if err == nil || !strings.Contains(err.Error(), "Levels") {
		t.Errorf("resume of a flat checkpoint with Levels=2 returned %v, want Levels mismatch", err)
	}
}

// TestValidateCheckpointOptsLevelPrefix: coarse-level boundary points are
// valid CheckpointAfter specs; malformed prefixes are still rejected.
func TestValidateCheckpointOptsLevelPrefix(t *testing.T) {
	valid := []string{"L1/wirelength", "L2/route_iter:3", "L3/setup", "wirelength", "route_iter:0"}
	for _, p := range valid {
		opt := &Options{CheckpointAfter: p, CheckpointPath: "x.ckpt"}
		if err := validateCheckpointOpts(opt); err != nil {
			t.Errorf("validateCheckpointOpts(%q) = %v, want nil", p, err)
		}
	}
	invalid := []string{"L0/wirelength", "Lx/wirelength", "L1/bogus", "L1/route_iter:-1", "L1/", "L-2/setup"}
	for _, p := range invalid {
		opt := &Options{CheckpointAfter: p, CheckpointPath: "x.ckpt"}
		if err := validateCheckpointOpts(opt); err == nil {
			t.Errorf("validateCheckpointOpts(%q) = nil, want error", p)
		}
	}
}

// TestMultilevelNothingToCoarsenIsDegenerate: a design whose movable cells
// have no movable neighbour to merge with (eight cells, each on a two-pin
// net to one pad) cannot run at Levels ≥ 2. That is a property of the
// design, so it fails as ErrDegenerateDesign (exit 5), which a supervisor
// does not retry.
func TestMultilevelNothingToCoarsenIsDegenerate(t *testing.T) {
	b := netlist.NewBuilder("star", geom.NewRect(0, 0, 64, 64), 8, 1)
	pad := b.AddCell("pad", netlist.IOPad, 0, 32, 1, 1)
	for i := range 8 {
		c := b.AddCell(fmt.Sprintf("c%d", i), netlist.StdCell, 32, 32, 4, 8)
		n := b.AddNet(fmt.Sprintf("n%d", i), 1)
		b.Connect(c, n, 0, 0)
		b.Connect(pad, n, 0, 0)
	}
	_, err := Place(b.MustBuild(), mlOpts(2))
	if !errors.Is(err, ErrDegenerateDesign) || !strings.Contains(err.Error(), "does not coarsen") {
		t.Fatalf("Place at Levels 2 = %v, want ErrDegenerateDesign naming \"does not coarsen\"", err)
	}
	if got := ExitCode(err); got != ExitDegenerate {
		t.Errorf("ExitCode = %d, want %d", got, ExitDegenerate)
	}
}
