package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/guard/inject"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// TestOptionsSentinelDefaults covers the zero-value trap fix: 0 selects the
// documented default, negative selects the literal zero.
func TestOptionsSentinelDefaults(t *testing.T) {
	var o Options
	o.setDefaults(100)
	if o.WLOverflowStop != 0.12 {
		t.Errorf("zero WLOverflowStop → %v, want default 0.12", o.WLOverflowStop)
	}
	if o.CongestionPatience != 4 {
		t.Errorf("zero CongestionPatience → %v, want default 4", o.CongestionPatience)
	}
	o2 := Options{WLOverflowStop: -1, CongestionPatience: -1}
	o2.setDefaults(100)
	if o2.WLOverflowStop != 0 {
		t.Errorf("negative WLOverflowStop → %v, want literal 0", o2.WLOverflowStop)
	}
	if o2.CongestionPatience != 0 {
		t.Errorf("negative CongestionPatience → %v, want literal 0", o2.CongestionPatience)
	}
}

func TestValidateCheckpointOpts(t *testing.T) {
	for _, good := range []string{"", "setup", "wirelength", "routability",
		"legalize", "detailed", "route_iter:0", "route_iter:17"} {
		opt := Options{CheckpointAfter: good, CheckpointPath: "x"}
		if err := validateCheckpointOpts(&opt); err != nil {
			t.Errorf("point %q rejected: %v", good, err)
		}
	}
	for _, bad := range []string{"eval", "L1/eval", "done", "route_iter:", "route_iter:-1",
		"route_iter:x", "phase1"} {
		opt := Options{CheckpointAfter: bad, CheckpointPath: "x"}
		if err := validateCheckpointOpts(&opt); err == nil {
			t.Errorf("point %q accepted, want error", bad)
		}
	}
	opt := Options{CheckpointAfter: "wirelength"}
	if err := validateCheckpointOpts(&opt); err == nil {
		t.Error("CheckpointAfter without CheckpointPath accepted, want error")
	}
}

// checkpointAt runs the design with a scheduled checkpoint and returns the
// checkpoint file path and the (un-flushed) trace of the first half.
func checkpointAt(t *testing.T, design, point string, obs *telemetry.Observer) string {
	t.Helper()
	opt := fastOpts(ModeOurs)
	opt.Observer = obs
	return checkpointWith(t, design, point, opt)
}

// checkpointWith runs the design under opt at one worker until the
// scheduled checkpoint at point, and returns the checkpoint file path.
func checkpointWith(t *testing.T, design, point string, opt Options) string {
	t.Helper()
	ckPath := filepath.Join(t.TempDir(), "run.ckpt")
	opt.Workers = 1
	opt.CheckpointPath = ckPath
	opt.CheckpointAfter = point
	_, err := Place(synth.MustGenerate(design), opt)
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("Place with CheckpointAfter=%q returned %v, want ErrCheckpointed", point, err)
	}
	return ckPath
}

// TestCheckpointRoundTrip: parse real checkpoints and write them back; the
// serialization must be byte-identical. Between them the cases write every
// optional record: a mid-loop checkpoint (GP, loop, congestion and
// telemetry sections all populated), the guard record, the multilevel
// record, and a baseline-mode loop whose infl record has no infl.dr or
// infl.cprev beside "cong 0". The committed seed, which an earlier build
// wrote, must rewrite byte-identically too.
func TestCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	guarded := fastOpts(ModeOurs)
	guarded.Guard = guard.Config{Policy: guard.Recover}
	for _, tc := range []struct {
		name, design, point string
		opt                 Options
		has, lacks          []string // record prefixes the file must (not) carry
	}{
		{"mid-loop", "tiny_hot", "route_iter:1", fastOpts(ModeOurs),
			[]string{"gp ", "loop ", "vec infl.dr ", "cong 1", "vec cong.util ", "tel "}, []string{"guard ", "multilevel "}},
		{"guard", "tiny_hot", "route_iter:0", guarded, []string{"guard recover "}, nil},
		{"multilevel", "tiny_hot", "L1/route_iter:0", mlOpts(2), []string{"multilevel 2 "}, nil},
		{"baseline", "tiny_hot", "route_iter:0", fastOpts(ModeBaselineRoute),
			[]string{"infl monotonic ", "cong 0"}, []string{"vec infl.dr ", "vec infl.cprev ", "vec cong.util "}},
		{"seed", "", "", Options{}, []string{"nmckpt 2"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckPath := filepath.Join("testdata", "seed.ckpt")
			if tc.design != "" {
				tc.opt.Observer = telemetry.NewObserver(io.Discard)
				ckPath = checkpointWith(t, tc.design, tc.point, tc.opt)
			}
			raw, err := os.ReadFile(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			lines := "\n" + string(raw)
			for _, rec := range tc.has {
				if !strings.Contains(lines, "\n"+rec) {
					t.Errorf("checkpoint carries no %q record", rec)
				}
			}
			for _, rec := range tc.lacks {
				if strings.Contains(lines, "\n"+rec) {
					t.Errorf("checkpoint carries a %q record", rec)
				}
			}
			ck, err := readCheckpoint(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var rewritten bytes.Buffer
			if err := writeCheckpoint(&rewritten, ck); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, rewritten.Bytes()) {
				a := strings.Split(string(raw), "\n")
				b := strings.Split(rewritten.String(), "\n")
				for i := 0; i < len(a) && i < len(b); i++ {
					if a[i] != b[i] {
						t.Fatalf("write→read→write differs at line %d:\n  first:  %.120s\n  second: %.120s", i+1, a[i], b[i])
					}
				}
				t.Fatalf("write→read→write differs in length: %d vs %d lines", len(a), len(b))
			}
		})
	}
}

// TestSeedCheckpointFields pins the record layout to an earlier build: the
// committed seed was written at the setup boundary of a default tiny_open
// run, and each field must read back into its own place. A round trip
// alone cannot catch two fields swapped in both the writer and the parser.
func TestSeedCheckpointFields(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "seed.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := readCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	d := synth.MustGenerate("tiny_open")
	want := Options{Mode: ModeOurs, Tech: AllTechniques()}
	want.setDefaults(len(d.Cells))
	if !reflect.DeepEqual(ck.Opt, want) {
		t.Errorf("options read back as %+v, want %+v", ck.Opt, want)
	}
	if err := ck.validateDesign(d); err != nil {
		t.Error(err)
	}
	if ck.Cur != (cursor{stage: "wirelength", step: -1}) || !ck.HasGP || ck.HasLoop || ck.ML {
		t.Errorf("cursor %+v, gp %v, loop %v, multilevel %v; want wirelength/0/-1 with only gp",
			ck.Cur, ck.HasGP, ck.HasLoop, ck.ML)
	}
	if nes := ck.GP.Nes; nes.A != 1 || !nes.First || nes.Steps != 0 || nes.Scale != 1 ||
		len(ck.CellPos) != 2*len(d.Cells) || len(nes.U) != len(nes.GPrev) {
		t.Errorf("nesterov record reads %v %v %d %v with %d/%d cellpos/u values",
			nes.A, nes.First, nes.Steps, nes.Scale, len(ck.CellPos), len(nes.U))
	}
}

// TestScheduledCheckpointResume is the tentpole acceptance test: stop at a
// scheduled point, resume in a fresh process state (fresh design object,
// fresh Observer), and require the final placement, congestion history,
// result summary AND the concatenated canonical telemetry trace to be
// byte-identical to an uninterrupted run. The points cover every stage
// boundary and one route iteration.
func TestScheduledCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	for _, tc := range []struct{ design, point string }{
		{"tiny_hot", "setup"},
		{"tiny_hot", "wirelength"},
		{"tiny_hot", "route_iter:2"},
		{"tiny_hot", "routability"},
		{"tiny_hot", "legalize"},
		{"tiny_hot", "detailed"},
		{"tiny_open", "wirelength"},
	} {
		tc := tc
		t.Run(tc.design+"/"+tc.point, func(t *testing.T) {
			refRes, refPos, refTrace := placeRun(t, tc.design, 1)

			var buf1 bytes.Buffer
			ckPath := checkpointAt(t, tc.design, tc.point, telemetry.NewObserver(&buf1))
			// No Flush on the first half: the stream must stop exactly at the
			// checkpoint so the resumed half continues it.

			var buf2 bytes.Buffer
			obs2 := telemetry.NewObserver(&buf2)
			d := synth.MustGenerate(tc.design) // fresh design: positions come from the checkpoint
			ckf, err := os.Open(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ResumeContext(context.Background(), d, ckf, Options{Workers: 1, Observer: obs2})
			ckf.Close()
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if err := obs2.Flush(); err != nil {
				t.Fatal(err)
			}

			for i := range d.Cells {
				if math.Float64bits(d.Cells[i].X) != math.Float64bits(refPos[2*i]) ||
					math.Float64bits(d.Cells[i].Y) != math.Float64bits(refPos[2*i+1]) {
					t.Fatalf("cell %d position (%v,%v) differs from uninterrupted (%v,%v)",
						i, d.Cells[i].X, d.Cells[i].Y, refPos[2*i], refPos[2*i+1])
				}
			}
			if res.WLIters != refRes.WLIters || res.RouteIters != refRes.RouteIters ||
				res.HPWLFinal != refRes.HPWLFinal || res.FinalOverflow != refRes.FinalOverflow ||
				res.Metrics != refRes.Metrics {
				t.Errorf("result summary differs:\n  uninterrupted: %+v %+v\n  resumed:       %+v %+v",
					refRes.Metrics, *refRes, res.Metrics, *res)
			}
			if len(res.CongestionHistory) != len(refRes.CongestionHistory) {
				t.Fatalf("congestion history length %d != %d", len(res.CongestionHistory), len(refRes.CongestionHistory))
			}
			for i := range refRes.CongestionHistory {
				if math.Float64bits(res.CongestionHistory[i]) != math.Float64bits(refRes.CongestionHistory[i]) {
					t.Errorf("congestion history[%d] %v != %v", i, res.CongestionHistory[i], refRes.CongestionHistory[i])
				}
			}

			concat := append(append([]byte(nil), buf1.Bytes()...), buf2.Bytes()...)
			canon, err := telemetry.StripTimings(concat)
			if err != nil {
				t.Fatalf("concatenated trace does not canonicalize: %v", err)
			}
			if !bytes.Equal(canon, refTrace) {
				a := strings.Split(string(refTrace), "\n")
				b := strings.Split(string(canon), "\n")
				for i := 0; i < len(a) && i < len(b); i++ {
					if a[i] != b[i] {
						t.Fatalf("canonical traces diverge at line %d:\n  uninterrupted: %.200s\n  resumed:       %.200s",
							i+1, a[i], b[i])
					}
				}
				t.Fatalf("canonical traces differ in length: %d vs %d lines", len(a), len(b))
			}
		})
	}
}

// TestResumeRejectsMismatches: the checkpoint is authoritative; a wrong
// design or conflicting options must be refused up front.
func TestResumeRejectsMismatches(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement run; skipped in -short")
	}
	ckPath := checkpointAt(t, "tiny_hot", "wirelength", nil)
	read := func() []byte {
		raw, err := os.ReadFile(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// Wrong design.
	other := synth.MustGenerate("tiny_open")
	if _, err := ResumeContext(context.Background(), other, bytes.NewReader(read()), Options{}); err == nil {
		t.Error("resume on a different design accepted, want error")
	}
	// Conflicting run-defining option.
	d := synth.MustGenerate("tiny_hot")
	if _, err := ResumeContext(context.Background(), d, bytes.NewReader(read()), Options{MaxWLIters: 7}); err == nil {
		t.Error("resume with conflicting MaxWLIters accepted, want error")
	}
	// Matching explicit options are fine; design is restored and completes.
	opt := fastOpts(ModeOurs)
	opt.Workers = 1
	if _, err := ResumeContext(context.Background(), d, bytes.NewReader(read()), opt); err != nil {
		t.Errorf("resume with matching explicit options failed: %v", err)
	}
	// Truncated checkpoint.
	raw := read()
	if _, err := readCheckpoint(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated checkpoint accepted, want error")
	}
}

// cancelOnLog cancels a context the first time a log line containing the
// trigger substring is written — a deterministic way to land a cancellation
// inside a specific pipeline phase.
type cancelOnLog struct {
	cancel  context.CancelFunc
	trigger string
	fired   bool
}

func (c *cancelOnLog) Write(p []byte) (int, error) {
	if !c.fired && strings.Contains(string(p), c.trigger) {
		c.fired = true
		c.cancel()
	}
	return len(p), nil
}

// TestCancellation drops a cancellation into each phase of the pipeline —
// the wirelength loop, a routability iteration, legalization — and requires
// PlaceContext to return ctx.Err() promptly with a valid checkpoint on
// disk, from which a resumed run reproduces the uninterrupted final
// placement bit-for-bit. It also watches for leaked goroutines: every
// parallel kernel must join its workers even on the cancellation path.
func TestCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement runs; skipped in -short")
	}
	refD := synth.MustGenerate("tiny_hot")
	refOpt := fastOpts(ModeOurs)
	refOpt.Workers = 1
	refRes, err := Place(refD, refOpt)
	if err != nil {
		t.Fatal(err)
	}

	baseline := testutil.GoroutineBaseline()
	// mid_iteration cancels through the injected fault instead of a log
	// line: before Nesterov step 3 of route iteration 1, whose resume must
	// continue the iteration's momentum sequence rather than restart it.
	for _, tc := range []struct {
		name, trigger string
		step          int // optimizer steps after phase 1 (mid_iteration only)
	}{
		{"wirelength", "phase 1:", 0},
		{"route_iter", "route iter 1:", 0},
		{"mid_iteration", "", fastOpts(ModeOurs).StepsPerRouteIter + 3},
		{"legalize", "legalizing", 0},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ckPath := filepath.Join(t.TempDir(), "cancel.ckpt")
			d := synth.MustGenerate("tiny_hot")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opt := fastOpts(ModeOurs)
			opt.Workers = 2 // exercise the parallel kernels' cancellation path
			opt.CheckpointPath = ckPath
			if tc.trigger != "" {
				opt.Log = &cancelOnLog{cancel: cancel, trigger: tc.trigger}
			} else {
				opt.FaultInjector = inject.New(1).Arm(inject.Cancel, refRes.WLIters+tc.step)
			}
			res, err := PlaceContext(ctx, d, opt)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("PlaceContext returned %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("cancelled run returned no partial result")
			}

			ckf, err := os.Open(ckPath)
			if err != nil {
				t.Fatalf("no checkpoint written on cancellation: %v", err)
			}
			ck, err := readCheckpoint(ckf)
			ckf.Close()
			if err != nil {
				t.Fatalf("cancellation checkpoint does not parse: %v", err)
			}
			t.Logf("cancelled at cursor %s/%d/%d", ck.Cur.stage, ck.Cur.iter, ck.Cur.step)
			if tc.step > 0 && ck.Cur != (cursor{stage: "routability", iter: 1, step: 3}) {
				t.Fatalf("injected cancel landed at %+v, want routability/1/3", ck.Cur)
			}

			ckf, err = os.Open(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := ResumeContext(context.Background(), d, ckf, Options{Workers: 1})
			ckf.Close()
			if err != nil {
				t.Fatalf("resume after cancellation: %v", err)
			}
			for i := range d.Cells {
				if math.Float64bits(d.Cells[i].X) != math.Float64bits(refD.Cells[i].X) ||
					math.Float64bits(d.Cells[i].Y) != math.Float64bits(refD.Cells[i].Y) {
					t.Fatalf("cell %d position (%v,%v) differs from uninterrupted (%v,%v)",
						i, d.Cells[i].X, d.Cells[i].Y, refD.Cells[i].X, refD.Cells[i].Y)
				}
			}
			if res2.HPWLFinal != refRes.HPWLFinal || res2.Metrics != refRes.Metrics ||
				res2.RouteIters != refRes.RouteIters {
				t.Errorf("resumed result differs from uninterrupted:\n  uninterrupted: %+v\n  resumed:       %+v",
					*refRes, *res2)
			}
		})
	}

	// Goroutine accounting: allow the runtime a moment to retire workers,
	// then require the count back near the pre-test baseline.
	testutil.AssertNoGoroutineLeak(t, baseline)
}

// writeVecFmt is a vector record's fmt form, the reference for its bytes.
func writeVecFmt(bw *bytes.Buffer, name string, v []float64) {
	fmt.Fprintf(bw, "vec %s %d", name, len(v))
	for _, x := range v {
		fmt.Fprintf(bw, " %g", x)
	}
	fmt.Fprintf(bw, "\n")
}

// TestWriteVecMatchesFmt: checkpoint vectors written by the field encoder
// (strconv.AppendFloat) are byte-identical to the fmt " %g" form, on ±0,
// ±Inf, NaN, subnormals, the extremes, random magnitudes and random bit
// patterns (NaN payloads included).
func TestWriteVecMatchesFmt(t *testing.T) {
	sub := math.Float64frombits(1)
	v := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), sub, -sub,
		math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.1, 1e20, 1e21, 1e-4, 1e-5, 123456789, 1.5e300}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0:
			v = append(v, rng.NormFloat64())
		case 1:
			v = append(v, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(600)-300)))
		case 2:
			v = append(v, math.Float64frombits(rng.Uint64()))
		default:
			v = append(v, float64(rng.Intn(1<<20)))
		}
	}
	for _, vec := range [][]float64{nil, v[:1], v[:5], v} {
		var got, want bytes.Buffer
		got.WriteString("cells 3\n")
		want.WriteString("cells 3\n")
		writeRecord(&got, "vec cellpos", []any{&vec})
		writeVecFmt(&want, "cellpos", vec)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := strings.Fields(got.String()), strings.Fields(want.String())
			for i := range min(len(g), len(w)) {
				if g[i] != w[i] {
					t.Fatalf("%d elements: field %d is %q, fmt gives %q", len(vec), i, g[i], w[i])
				}
			}
			t.Fatalf("%d elements: %d bytes, fmt gives %d", len(vec), got.Len(), want.Len())
		}
	}
}
