package core

// The stage-graph pipeline. Place used to be one monolithic function; it is
// now an explicit sequence of stages over a shared PlacementState:
//
//	setup → wirelength → routability → legalize → detailed → eval
//
// The stages table names each stage and the PlacementState method that
// runs it; a stage mutates the state and honours cooperative cancellation
// through its Context. The runner (runPipeline) owns the cursor that
// records how far the run has progressed, the span bookkeeping around
// stages, and the checkpoint machinery: after any stage — and after any
// individual route iteration — the complete mutable state can be
// serialized (see state.go) and a later process can resume it to a
// byte-identical final placement.
//
// Two kinds of checkpoint exist:
//
//   - Scheduled (Options.CheckpointAfter): the run stops at a pre-announced
//     point with ErrCheckpointed, leaving the telemetry stream un-flushed
//     and the open spans captured. A resumed run CONTINUES the trace: the
//     canonical (StripTimings) concatenation of the two halves is byte-
//     identical to an uninterrupted run's canonical trace.
//
//   - Cancellation (ctx cancelled or timed out): open spans are unwound
//     first so the interrupted trace is well-formed, then the checkpoint is
//     written. Resuming reproduces the uninterrupted run's final PLACEMENT
//     bit-for-bit (positions, CongestionHistory), but not its trace — the
//     cancellation point is not deterministic, so the extra span events
//     around it cannot be.

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/congestion"
	"repro/internal/density"
	"repro/internal/detailed"
	"repro/internal/eval"
	"repro/internal/guard"
	"repro/internal/inflation"
	"repro/internal/legalize"
	"repro/internal/nesterov"
	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/pgrail"
	"repro/internal/route"
	"repro/internal/telemetry"
	"repro/internal/wirelength"
)

// ErrCheckpointed is returned by PlaceContext/ResumeContext when the run
// stopped at the scheduled Options.CheckpointAfter point after writing its
// state to Options.CheckpointPath. It signals a successful pause, not a
// failure: the partial Result is valid as far as the run got, and resuming
// from the written checkpoint completes the run byte-identically.
var ErrCheckpointed = errors.New("core: run stopped at scheduled checkpoint")

// Exit codes of a failed run: the contract cmd/placer and the placed
// worker share (DESIGN.md §9). Code 2 (usage) belongs to flag parsing, and
// each command picks its own code for ErrCheckpointed.
const (
	ExitError      = 1 // anything unclassified
	ExitCancelled  = 3 // context cancelled or deadline exceeded
	ExitCorrupt    = 4 // ErrCheckpointCorrupt
	ExitDegenerate = 5 // ErrDegenerateDesign
	ExitGuard      = 6 // guard violation, or the recovery budget exhausted
	ExitNoRoom     = 8 // legalization found no room for a cell
)

// ExitCode classifies a run error for the process exit status: 0 for nil,
// otherwise one of the Exit* codes. Callers handle ErrCheckpointed first.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ExitCancelled
	case errors.Is(err, ErrCheckpointCorrupt):
		return ExitCorrupt
	case errors.Is(err, ErrDegenerateDesign):
		return ExitDegenerate
	case errors.Is(err, guard.ErrBudgetExhausted), errors.Is(err, guard.ErrViolation):
		return ExitGuard
	case errors.As(err, new(*legalize.NoRoomError)):
		return ExitNoRoom
	default:
		return ExitError
	}
}

// BoundaryAction is what Options.BoundaryHook tells the pipeline to do at a
// checkpoint boundary. See the field's documentation for the semantics.
type BoundaryAction int

const (
	// BoundaryContinue runs on without touching the checkpoint file.
	BoundaryContinue BoundaryAction = iota
	// BoundaryCheckpoint writes the state to Options.CheckpointPath and
	// continues — periodic persistence for crash migration.
	BoundaryCheckpoint
	// BoundaryStop writes the state and stops with ErrCheckpointed — the
	// cooperative pause/preemption point.
	BoundaryStop
)

// stages is the pipeline in run order: cursor.stage always names one of
// them, or cursorDone after eval finished, and every stage but eval is a
// CheckpointAfter point. A stage's run mutates the shared PlacementState
// and returns nil on completion, a context error when cancelled (after
// bringing the design back to a consistent position state), or any other
// error on failure. It must end every span it starts before returning an
// error, so the runner's unwind logic only deals with the spans it opened
// itself.
var stages = []struct {
	name string
	run  func(*PlacementState, context.Context) error
}{
	{"setup", (*PlacementState).runSetup},
	{"wirelength", (*PlacementState).runWirelength},
	{"routability", (*PlacementState).runRoutability},
	{"legalize", (*PlacementState).runLegalize},
	{"detailed", (*PlacementState).runDetailed},
	{"eval", (*PlacementState).runEval},
}

const cursorDone = "done"

// stageIndex is name's position in stages; cursorDone and unknown names
// sort after every stage.
func stageIndex(name string) int {
	for i, s := range stages {
		if s.name == name {
			return i
		}
	}
	return len(stages)
}

// cursor pinpoints the pipeline position a checkpoint was taken at.
type cursor struct {
	// stage is the next stage to run (a finished stage advances the cursor
	// to its successor before any checkpoint can be written).
	stage string
	// iter is the next loop iteration within an iterative stage: the
	// wirelength step for "wirelength", the route iteration for
	// "routability". Zero elsewhere.
	iter int
	// step refines a routability iteration: -1 means iteration `iter` has
	// not begun; s ≥ 0 means its router call and model adaptation are
	// committed and s Nesterov steps have run.
	step int
}

// PlacementState is the complete mutable state of one placement run: the
// design being placed, the run's options and partial Result, the pipeline
// cursor, and the runtime models (density, wirelength, router, optimizer,
// …) the stages share. The serializable subset — everything needed to
// reconstruct the rest deterministically — is written by the checkpoint
// machinery in state.go; the model objects themselves are rebuilt, never
// serialized.
type PlacementState struct {
	D   *netlist.Design
	Opt Options
	Res *Result

	cur cursor

	// Telemetry plumbing. restored holds live handles for spans that were
	// open when a scheduled checkpoint was captured (outermost first); the
	// runner and the routability stage re-adopt them so the resumed trace
	// closes them under their original IDs.
	obs      *telemetry.Observer
	tr       *telemetry.Tracer
	root     *telemetry.Span
	restored []*telemetry.Span

	// Core runtime, built by buildRuntime (deterministically — independent
	// of current movable positions, which restore overwrites afterwards).
	dens   *density.Model
	wl     *wirelength.Model
	grid   *route.Grid
	cong   *congestion.Model
	obj    *objective
	optm   *nesterov.Optimizer
	rtr    *route.Router // constructed once, Reset per route iteration
	gamma0 float64

	// Routability-loop runtime, built by the loop prologue on a fresh run
	// or by restore when resuming into the middle of the loop.
	loopReady   bool
	inf         inflation.Inflator
	bins        pgrail.BinGrid
	selected    []netlist.PGRail
	dynamicPG   bool
	useCongTerm bool
	congAt      []float64
	bestC       float64
	stall       int
	bestX       []float64 // placement with the lowest weighted congestion

	// Multilevel context (see multilevel.go): nil on a flat run. level is
	// the hierarchy level this state places (0 = the original design); ml
	// carries the cluster maps and the outer run identity shared by every
	// level of one multilevel run.
	level int
	ml    *mlRun

	// Guard layer (see guard.go): nil unless Options.Guard is enabled.
	grd *guardRuntime
	// ckptWrites counts checkpoint files written; it indexes the
	// checkpoint-corruption faults in writeCheckpointNow.
	ckptWrites int

	start time.Time
}

// Place runs the selected placer on the design IN PLACE (cell positions are
// overwritten) and returns the run report including post-route metrics.
// It is PlaceContext with a background context.
//
// Telemetry (Options.Observer) records the run as a span tree:
//
//	place
//	  setup
//	  phase1_wirelength                  (one "wl_iter" snapshot per step)
//	  phase2_routability
//	    route_iter ×N                    (one "route_iter" snapshot each)
//	      route > route.decompose, route.round ×R
//	      inflate · pg_density · congestion_update · nesterov
//	  legalize > legalize.sort, legalize.abacus
//	  detailed > detailed.pass ×P
//	eval
//	  route.decompose, route.round ×4, eval.score
//
// The "place" span closes exactly where Result.PlaceTime is measured and
// "eval" where Result.RouteTime is, so the trace accounts for the full
// reported runtime.
func Place(d *netlist.Design, opt Options) (*Result, error) {
	return PlaceContext(context.Background(), d, opt)
}

// PlaceContext is Place with cooperative cancellation and checkpointing.
// When ctx is cancelled or times out, the run stops within one Nesterov
// step or one router round, brings the design to a consistent position
// state, writes a checkpoint when Options.CheckpointPath is set, and
// returns the partial Result together with ctx.Err(). When
// Options.CheckpointAfter is set, the run stops at that point with
// ErrCheckpointed instead (see the package comments above on the two
// checkpoint kinds).
func PlaceContext(ctx context.Context, d *netlist.Design, opt Options) (*Result, error) {
	opt.setDefaults(len(d.Cells))
	if err := validateRun(d, &opt); err != nil {
		return nil, err
	}
	if opt.Levels > 1 {
		return placeMultilevel(ctx, d, opt)
	}
	ps := &PlacementState{
		D:   d,
		Opt: opt,
		Res: &Result{Mode: opt.Mode},
		cur: cursor{stage: "setup", step: -1},
		obs: opt.Observer,
	}
	if ps.obs != nil {
		ps.tr = ps.obs.Tracer
	}
	return runPipeline(ctx, ps)
}

// pt maps a span/snapshot/boundary-point name onto this state's hierarchy
// level: level 0 (and flat runs) use the bare name, coarse level k prefixes
// "L<k>/" — so traces, stage timings and checkpoint points of different
// levels never collide, and the flat pipeline's names are unchanged.
func (ps *PlacementState) pt(name string) string {
	if ps.level == 0 {
		return name
	}
	return fmt.Sprintf("L%d/%s", ps.level, name)
}

// startSpan opens a span under the state's level prefix.
func (ps *PlacementState) startSpan(name string) *telemetry.Span {
	return ps.obs.StartSpan(ps.pt(name))
}

// validateRun is the entry check a fresh run and a resume share: the
// checkpoint request, the guard config, then the design.
func validateRun(d *netlist.Design, opt *Options) error {
	if err := validateCheckpointOpts(opt); err != nil {
		return err
	}
	if err := opt.Guard.Validate(); err != nil {
		return err
	}
	return validatePlaceable(d)
}

// validateCheckpointOpts rejects malformed checkpoint requests up front so
// a long run cannot fail at its scheduled stop point.
func validateCheckpointOpts(opt *Options) error {
	if opt.CheckpointAfter == "" {
		return nil
	}
	if opt.CheckpointPath == "" {
		return fmt.Errorf("core: CheckpointAfter %q requires CheckpointPath", opt.CheckpointAfter)
	}
	spec := opt.CheckpointAfter
	// Multilevel boundary points carry an "L<k>/" level prefix
	// ("L2/wirelength", "L1/route_iter:0"); validate the bare point.
	if rest, ok := strings.CutPrefix(spec, "L"); ok {
		if lvl, point, found := strings.Cut(rest, "/"); found {
			if n, err := strconv.Atoi(lvl); err == nil && n >= 1 {
				spec = point
			}
		}
	}
	if k, ok := strings.CutPrefix(spec, "route_iter:"); ok {
		n, err := strconv.Atoi(k)
		if err != nil || n < 0 {
			return fmt.Errorf("core: bad CheckpointAfter route iteration %q", spec)
		}
		return nil
	}
	if stageIndex(spec) < len(stages)-1 { // any stage but the terminal eval
		return nil
	}
	return fmt.Errorf("core: unknown CheckpointAfter point %q", opt.CheckpointAfter)
}

// runPipeline drives the stage sequence from ps.cur to completion.
func runPipeline(ctx context.Context, ps *PlacementState) (*Result, error) {
	ps.start = time.Now()
	// The "place" root span covers setup through detailed (eval is timed
	// separately as Result.RouteTime). A run resumed past detailed has no
	// root span to reopen.
	if stageIndex(ps.cur.stage) <= stageIndex("detailed") {
		ps.root = ps.resumeSpanFor("place")
	}
	// Start at the cursor's stage: a resumed run has done the ones before.
	for _, st := range stages[stageIndex(ps.cur.stage):] {
		// Label the stage for CPU/goroutine profiles: `go tool pprof`
		// -tagfocus=stage=<name> isolates one pipeline stage.
		var err error
		pprof.Do(ctx, pprof.Labels("stage", st.name), func(ctx context.Context) {
			err = st.run(ps, ctx)
		})
		if err != nil {
			return ps.fail(err)
		}
		if err := ps.afterStage(st.name); err != nil {
			return ps.fail(err)
		}
	}
	// Coarse multilevel levels are inner phases of one run: the end-of-run
	// gauges and stage-timing collection belong to the finest level only.
	if ps.level == 0 {
		ps.finishTelemetry()
	}
	return ps.Res, nil
}

// afterStage advances the cursor past a finished stage, applies the
// stage-boundary bookkeeping the monolithic Place used to do inline, and
// fires the scheduled checkpoint when this boundary is the requested one.
func (ps *PlacementState) afterStage(name string) error {
	ps.cur = cursor{stage: cursorDone, step: -1}
	if next := stageIndex(name) + 1; next < len(stages) {
		ps.cur.stage = stages[next].name
	}
	switch name {
	case "routability":
		ps.Res.HPWLGlobal = ps.D.HPWL()
	case "detailed":
		ps.Res.HPWLFinal = ps.D.HPWL()
		ps.root.End()
		ps.root = nil
		ps.Res.PlaceTime = time.Since(ps.start)
	case "eval":
		return nil // terminal; no checkpoint point exists after eval
	}
	return ps.maybeCheckpoint(ps.pt(name))
}

// maybeCheckpoint writes the scheduled checkpoint and stops the run when
// the just-completed point matches Options.CheckpointAfter. It MUST be the
// last telemetry-visible action before the run stops: no event may be
// emitted between the state capture and the return, or the interrupted
// trace would diverge from the uninterrupted one.
func (ps *PlacementState) maybeCheckpoint(point string) error {
	if ps.Opt.CheckpointAfter != "" && ps.Opt.CheckpointAfter == point {
		if err := ps.writeCheckpointNow(); err != nil {
			return err
		}
		return ErrCheckpointed
	}
	// The supervisor hook sees every boundary the scheduled checkpoint could
	// name. Capture is read-only and emits no telemetry, so a mid-flight
	// checkpoint leaves the run — and its trace — untouched; a stop is
	// indistinguishable from a CheckpointAfter stop at this point.
	if ps.Opt.BoundaryHook != nil && ps.Opt.CheckpointPath != "" {
		switch ps.Opt.BoundaryHook(point) {
		case BoundaryCheckpoint:
			return ps.writeCheckpointNow()
		case BoundaryStop:
			if err := ps.writeCheckpointNow(); err != nil {
				return err
			}
			return ErrCheckpointed
		}
	}
	return nil
}

// fail is the runner's single error exit. Scheduled checkpoints pass
// through untouched (spans intentionally left open, partial Result
// returned). Cancellation unwinds the root span, writes a best-effort
// checkpoint, and returns the partial Result with the context error. Any
// other error closes the trace and fails the run.
func (ps *PlacementState) fail(err error) (*Result, error) {
	if errors.Is(err, ErrCheckpointed) {
		return ps.Res, err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		ps.root.End()
		ps.root = nil
		ps.Res.PlaceTime = time.Since(ps.start)
		if ps.Opt.CheckpointPath != "" && !ps.Opt.DisableCancelCheckpoint {
			if werr := ps.writeCheckpointNow(); werr != nil {
				return ps.Res, fmt.Errorf("%w (and writing the checkpoint failed: %v)", err, werr)
			}
		}
		return ps.Res, err
	}
	ps.root.End()
	ps.root = nil
	return nil, err
}

// resumeSpanFor re-adopts the next restored open-span handle when its name
// matches (under the state's level prefix), so the resumed run closes it
// under its original span ID; otherwise it starts a fresh span.
func (ps *PlacementState) resumeSpanFor(name string) *telemetry.Span {
	name = ps.pt(name)
	if len(ps.restored) > 0 && ps.restored[0].Name() == name {
		sp := ps.restored[0]
		ps.restored = ps.restored[1:]
		return sp
	}
	return ps.obs.StartSpan(name)
}

// finishTelemetry emits the end-of-run gauges and collects the stage
// timings. The parallelism gauges are volatile (wall-clock ratios,
// excluded from canonical traces) and only meaningful when the GP runtime
// exists — a run resumed past global placement skips them.
func (ps *PlacementState) finishTelemetry() {
	obs := ps.obs
	if obs == nil {
		return
	}
	res := ps.Res
	obs.Gauge("place.wl_iters").Set(float64(res.WLIters))
	obs.Gauge("place.route_iters").Set(float64(res.RouteIters))
	obs.Gauge("place.final_overflow").Set(res.FinalOverflow)
	obs.Gauge("place.hpwl_final").Set(res.HPWLFinal)
	obs.Gauge("place.legalize_disp").Set(res.LegalizeDisp)
	obs.Gauge("eval.drwl").Set(res.Metrics.DRWL)
	obs.Gauge("eval.drvias").Set(float64(res.Metrics.DRVias))
	obs.Gauge("eval.drvs").Set(float64(res.Metrics.DRVs))
	// Parallelism gauges are volatile: wall-clock ratios that vary with
	// machine and load, excluded from canonical traces.
	obs.VolatileGauge("parallel.workers").Set(float64(parallel.Resolve(ps.Opt.Workers)))
	if ps.wl != nil {
		obs.VolatileGauge("parallel.wirelength.speedup").Set(ps.wl.Stats().Speedup())
	}
	if ps.dens != nil {
		obs.VolatileGauge("parallel.density.speedup").Set(ps.dens.Stats().Speedup())
		pstats := ps.dens.SolverStats()
		if ps.cong != nil {
			pstats.Add(ps.cong.SolverStats())
		}
		obs.VolatileGauge("parallel.poisson.speedup").Set(pstats.Speedup())
	}
	res.StageTimings = obs.Tracer.StageTimings()
}

// buildRuntime constructs the shared placement models. Construction is
// deterministic and independent of the current movable-cell positions
// (density fillers are sprinkled over fixed-cell-free area only), so the
// same call serves both a fresh setup and a checkpoint restore — restore
// overwrites the position-dependent state afterwards.
func (ps *PlacementState) buildRuntime() error {
	d, opt := ps.D, ps.Opt
	dens := density.New(d, opt.GridHint)
	dens.Workers = opt.Workers
	ps.dens = dens
	ps.gamma0 = dens.BinW() * 0.5
	ps.wl = wirelength.New(d, ps.gamma0*10)
	ps.wl.Workers = opt.Workers
	ps.grid = route.NewGrid(d, opt.GridHint)
	if ps.grid.NX != dens.NX || ps.grid.NY != dens.NY {
		return fmt.Errorf("core: bin grid %dx%d and G-cell grid %dx%d differ",
			dens.NX, dens.NY, ps.grid.NX, ps.grid.NY)
	}

	if opt.Mode == ModeOurs && opt.Tech.DC {
		cong := congestion.New(d, ps.grid)
		cong.Workers = opt.Workers
		cong.VirtualAtMidpoint = opt.Tech.VirtualAtMidpoint
		if opt.Tech.CongestionThreshold > 0 {
			cong.UtilThreshold = opt.Tech.CongestionThreshold
		}
		ps.cong = cong
	}
	ps.useCongTerm = ps.cong != nil

	ps.obj = newObjective(d, ps.wl, dens, ps.cong)
	ps.obj.fixedLambda2 = opt.Tech.FixedLambda2

	x := make([]float64, ps.obj.dim())
	ps.obj.gather(x)
	ps.optm = nesterov.New(x, dens.BinW()*0.1)
	ps.optm.StepMax = dens.BinW() * 4
	ps.congAt = make([]float64, len(d.Cells))

	ps.initGuard()
	ps.wireInjector()

	if obs := ps.obs; obs != nil {
		obs.Gauge("design.cells").Set(float64(len(d.Cells)))
		obs.Gauge("design.nets").Set(float64(len(d.Nets)))
		obs.Gauge("design.grid").Set(float64(dens.NX))
		ps.obj.poissonSolves = obs.Counter("poisson.solves")
		evals := obs.Counter("objective.evals")
		stepHist := obs.Histogram("nesterov.step_size")
		ps.optm.OnStep = func(_ int, step float64) {
			evals.Inc()
			stepHist.Observe(step)
		}
	}
	return nil
}

// ---- Stages ----

// runSetup spreads the initial placement and builds the shared runtime.
func (ps *PlacementState) runSetup(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp := ps.startSpan("setup")
	// The coarsest level spreads from scratch; every finer multilevel level
	// starts from the interpolated coarse solution instead.
	if ps.ml == nil || ps.level == ps.ml.topLevel {
		spreadInitial(ps.D)
	}
	if err := ps.buildRuntime(); err != nil {
		sp.End()
		return err
	}
	sp.End()
	return nil
}

// runWirelength is phase 1: wirelength-driven electrostatic placement (the
// Xplace part of the flow). Cancellation is checked before every Nesterov
// step; the cursor records the step index so a resumed run continues the
// exact iteration sequence.
func (ps *PlacementState) runWirelength(ctx context.Context) error {
	opt, obs, res := &ps.Opt, ps.obs, ps.Res
	p1 := ps.startSpan("phase1_wirelength")
	if ps.cur.iter == 0 {
		opt.logf("phase 1: wirelength-driven placement (grid %dx%d, %d fillers)",
			ps.dens.NX, ps.dens.NY, ps.dens.NumFillers())
	}
	for it := ps.cur.iter; it < opt.MaxWLIters; it++ {
		if err := ps.checkCancel(ctx); err != nil {
			ps.cur = cursor{stage: "wirelength", iter: it, step: -1}
			p1.End()
			return err
		}
		ps.obj.useCong = false
		step := ps.optm.Step(ps.obj)
		if retry, err := ps.guardAfterStep("wirelength"); err != nil {
			p1.End()
			return err
		} else if retry {
			it-- // redo this iteration from the rolled-back state
			continue
		}
		ps.obj.lambda1 *= lambda1Growth
		ps.wl.UpdateGamma(ps.gamma0, clamp01(ps.obj.lastOverflow))
		res.WLIters++
		ps.cur = cursor{stage: "wirelength", iter: it + 1, step: -1}
		if obs != nil {
			obs.Snapshot(ps.pt("wl_iter"), it,
				telemetry.F("wl", ps.obj.lastWL),
				telemetry.F("dens_overflow", ps.obj.lastOverflow),
				telemetry.F("lambda1", ps.obj.lambda1),
				telemetry.F("gamma", ps.wl.Gamma()),
				telemetry.F("step", step))
		}
		if ps.obj.lastOverflow < opt.WLOverflowStop && it > 20 {
			break
		}
	}
	ps.obj.scatter(ps.optm.U())
	ps.D.ClampToDie()
	ps.dens.ClampFillers()
	res.FinalOverflow = ps.obj.lastOverflow
	p1.End()
	opt.logf("phase 1 done: %d iters, overflow %.3f, HPWL %.0f",
		res.WLIters, ps.obj.lastOverflow, ps.D.HPWL())
	return nil
}

// runRoutability is phase 2: the Fig. 2 routability loop shared by
// ModeBaselineRoute and ModeOurs. Every route iteration is a checkpoint
// boundary; within an iteration, cancellation is checked before the router
// call and before every Nesterov step.
func (ps *PlacementState) runRoutability(ctx context.Context) error {
	if ps.Opt.Mode == ModeWirelength {
		return nil
	}
	p2 := ps.resumeSpanFor("phase2_routability")
	err := ps.routabilityLoop(ctx)
	if errors.Is(err, ErrCheckpointed) {
		return err // p2 stays open; it was captured into the checkpoint
	}
	p2.End()
	return err
}

// loopPrologue builds the routability-loop runtime: the inflation scheme
// for the mode/ablation, and the PG-rail density policy. It runs once per
// loop; a resume into the middle of the loop rebuilds the same objects
// through restore (silently — the prologue's log line already sits in the
// first half of the trace).
func (ps *PlacementState) loopPrologue() error {
	d, opt := ps.D, &ps.Opt
	if err := ps.buildLoopModels(); err != nil {
		return err
	}
	if ps.dynamicPG {
		opt.logf("phase 2: %d of %d PG rails selected for density adjustment",
			len(ps.selected), len(d.Rails))
	} else {
		// Xplace-Route style static pre-adjustment, set once. It stays in
		// effect in the ablation rows without DPA because the paper's
		// framework is built on Xplace-Route's flow — the DPA technique
		// REPLACES the static adjustment with the congestion-gated dynamic
		// one (Sec. III-C contrasts exactly these two policies).
		pg, err := pgrail.StaticDensity(d, ps.bins)
		if err == nil {
			err = ps.dens.SetPGDensity(pg)
		}
		if err != nil {
			return err
		}
	}
	ps.loopReady = true
	return nil
}

// buildLoopModels builds the loop's models that the prologue and a restore
// share: the inflator, the PG bin grid and the rail selection.
func (ps *PlacementState) buildLoopModels() error {
	d, opt := ps.D, &ps.Opt
	inf, err := newInflator(d, opt)
	if err != nil {
		return err
	}
	ps.inf = inf
	ps.bins = pgrail.BinGrid{NX: ps.dens.NX, NY: ps.dens.NY, Die: d.Die,
		BinW: ps.dens.BinW(), BinH: ps.dens.BinH()}
	ps.dynamicPG = opt.Mode == ModeOurs && opt.Tech.DPA
	if ps.dynamicPG {
		ps.selected = pgrail.SelectRails(d)
	}
	return nil
}

// newInflator picks the inflation scheme for the mode / ablation config.
func newInflator(d *netlist.Design, opt *Options) (inflation.Inflator, error) {
	scheme := opt.Tech.InflationScheme
	if scheme == "" {
		if opt.Mode == ModeOurs && opt.Tech.MCI {
			scheme = "momentum"
		} else {
			scheme = "monotonic"
		}
	}
	switch scheme {
	case "momentum":
		m := inflation.NewMomentum(len(d.Cells))
		if opt.Tech.MomentumAlpha > 0 {
			m.Alpha = opt.Tech.MomentumAlpha
		}
		return m, nil
	case "present":
		return inflation.NewPresentOnly(len(d.Cells)), nil
	case "monotonic":
		return inflation.NewMonotonic(len(d.Cells)), nil
	default:
		return nil, fmt.Errorf("core: unknown inflation scheme %q", scheme)
	}
}

// loopCounters are the routability loop's metric handles. They are nil-safe:
// with no Observer they are nil and every update is a no-op branch.
type loopCounters struct {
	routeCalls, ripupRounds, routeSegs         *telemetry.Counter
	congUpdates, nesterovResets, poissonSolves *telemetry.Counter
}

// routabilityLoop runs (or resumes) the loop of Fig. 2. Each route iteration
// routes and adapts the models (routeAndAdapt), then optimizes the adapted
// objective (optimize). ps.cur names the next work throughout — {it, -1}
// before an iteration's router call, {it, s} before its Nesterov step s —
// so a cancellation checkpoints from wherever it lands.
func (ps *PlacementState) routabilityLoop(ctx context.Context) error {
	obs := ps.obs
	// Resolved at loop entry, so every run registers the same metrics; on a
	// resumed run they resolve to the restored metrics, continuing counts.
	c := &loopCounters{
		routeCalls:     obs.Counter("route.calls"),
		ripupRounds:    obs.Counter("route.ripup_rounds"),
		routeSegs:      obs.Counter("route.segments"),
		congUpdates:    obs.Counter("congestion.updates"),
		nesterovResets: obs.Counter("nesterov.resets"),
		poissonSolves:  obs.Counter("poisson.solves"),
	}
	if !ps.loopReady {
		if err := ps.loopPrologue(); err != nil {
			return err
		}
	}
	// One router for the whole loop: constructing the demand/history grids
	// per iteration was pure allocation churn — RouteContext resets them in
	// place, with byte-identical results. A checkpoint restore pre-creates
	// the router (to rebuild its decomposition cache), so the wiring below
	// is unconditional.
	if ps.rtr == nil {
		ps.rtr = route.NewRouter(ps.D, ps.grid)
	}
	ps.rtr.Trace = ps.tr
	ps.rtr.CacheHits = obs.Counter("route.decompose_cache_hits")
	ps.rtr.DirtyNets = obs.Counter("route.dirty_nets")

	for it := ps.cur.iter; it < ps.Opt.MaxRouteIters; it++ {
		// A resume into a half-finished iteration (a cancellation landed
		// between Nesterov steps) has its router call and adaptation
		// committed already and picks up at the recorded step.
		fresh := ps.cur.step < 0
		if fresh {
			if err := ps.checkCancel(ctx); err != nil {
				return err
			}
			ps.obj.scatter(ps.optm.U())
		}
		itSp := ps.startSpan("route_iter")
		stop, err := false, error(nil)
		if fresh {
			stop, err = ps.routeAndAdapt(ctx, it, c)
		}
		if !stop && err == nil {
			err = ps.optimize(ctx, fresh, c)
		}
		itSp.End()
		if err != nil {
			return err
		}
		if stop {
			break
		}
		ps.cur = cursor{stage: "routability", iter: it + 1, step: -1}
		if err := ps.maybeCheckpoint(ps.pt(fmt.Sprintf("route_iter:%d", it))); err != nil {
			return err
		}
	}
	if ps.bestX != nil {
		ps.obj.scatter(ps.bestX)
	} else {
		ps.obj.scatter(ps.optm.U())
	}
	ps.D.ClampToDie()
	ps.dens.ClampFillers()
	return nil
}

// routeAndAdapt is a fresh iteration's route-and-adapt phase: route the
// current placement, record C(x,y), apply the stop rules, then adapt the
// models — cell inflation, PG density and the congestion term. It reports
// stop when the loop ends at this iteration.
func (ps *PlacementState) routeAndAdapt(ctx context.Context, it int, c *loopCounters) (stop bool, err error) {
	d, opt, obs, res := ps.D, &ps.Opt, ps.obs, ps.Res
	sp := ps.startSpan("route")
	rres, err := ps.rtr.RouteContext(ctx)
	sp.End()
	if err != nil {
		return false, err
	}
	c.routeCalls.Inc()
	c.ripupRounds.Add(int64(rres.RoundsRun))
	c.routeSegs.Add(int64(rres.Segments))
	// Track the same superlinear overflow shape the post-route DRV oracle
	// scores, so "C(x,y) no longer decreases" and the final evaluation
	// agree on what an improvement is.
	wc := overflowScore(rres)
	res.CongestionHistory = append(res.CongestionHistory, wc)
	// Count the router call NOW so RouteIters == len(CongestionHistory)
	// even when a stop rule below ends the loop.
	res.RouteIters++
	opt.logf("route iter %d: overflow score %.1f, max util %.2f, overflow cells %d",
		it, wc, rres.MaxUtil, rres.OverflowCells)
	if obs != nil {
		inflMean, inflMax := inflationStats(ps.inf.Ratios())
		obs.Snapshot(ps.pt("route_iter"), it,
			telemetry.F("hpwl", d.HPWL()),
			telemetry.F("overflow_score", wc),
			telemetry.F("max_util", rres.MaxUtil),
			telemetry.F("overflow_cells", float64(rres.OverflowCells)),
			telemetry.F("dens_overflow", ps.obj.lastOverflow),
			telemetry.F("lambda1", ps.obj.lambda1),
			telemetry.F("lambda2", ps.obj.lambda2),
			telemetry.F("gamma", ps.wl.Gamma()),
			telemetry.F("infl_mean", inflMean),
			telemetry.F("infl_max", inflMax))
		// Quantized congestion frame for heatmap replay (dashboard, trace
		// tooling). Emitted only on fresh iterations — resumed runs skip
		// committed iterations, keeping the trace continuation byte-exact.
		obs.Grid(ps.pt("congestion"), it, ps.grid.NX, ps.grid.NY, rres.Congestion)
	}

	// Stop when C(x,y) no longer decreases (Fig. 2); remember the best
	// placement seen so a late degradation cannot leak into the result.
	if it == 0 || wc < ps.bestC*0.999 {
		ps.bestC = wc
		ps.stall = 0
		ps.bestX = append(ps.bestX[:0], ps.optm.U()...)
	} else {
		ps.stall++
		if ps.stall >= opt.CongestionPatience {
			opt.logf("route loop: congestion stalled after %d iters", it+1)
			return true, nil
		}
	}
	if rres.OverflowCells == 0 {
		opt.logf("route loop: no congestion left after %d iters", it+1)
		return true, nil
	}

	// Momentum (or baseline) cell inflation.
	sp = ps.startSpan("inflate")
	cellCongestion(d, rres.CongestionAt, ps.congAt)
	err = ps.inf.Update(ps.congAt, rres.AvgCongestion())
	if err == nil {
		err = ps.dens.SetInflations(ps.inf.Ratios())
	}
	sp.End()
	if err != nil {
		return false, err
	}

	// Dynamic PG density (Eq. 13–15).
	if ps.dynamicPG {
		sp = ps.startSpan("pg_density")
		pg, err := pgrail.Density(ps.selected, ps.bins, rres.Congestion, rres.AvgCongestion())
		if err == nil {
			err = ps.dens.SetPGDensity(pg)
		}
		sp.End()
		if err != nil {
			return false, err
		}
	}

	// Differentiable congestion term.
	if ps.useCongTerm {
		sp = ps.startSpan("congestion_update")
		ps.cong.Update(rres)
		sp.End()
		c.congUpdates.Inc()
		c.poissonSolves.Inc() // the congestion potential is one Poisson solve
	}
	ps.cur.step = 0
	return false, nil
}

// optimize is an iteration's optimize phase: the Nesterov steps on the
// adapted objective, from step ps.cur.step on. The problem changed
// discontinuously, so a fresh iteration restarts the momentum sequence at
// the current main iterate; on a resume the restored optimizer state is
// already post-Reset. λ₁ keeps growing only while density overflow remains
// above the target — compounding it unconditionally would let the density
// term drown the wirelength and congestion terms over a long loop.
func (ps *PlacementState) optimize(ctx context.Context, fresh bool, c *loopCounters) error {
	sp := ps.startSpan("nesterov")
	defer sp.End()
	ps.obj.useCong = ps.useCongTerm
	if fresh {
		ps.optm.Reset(ps.optm.U())
		c.nesterovResets.Inc()
	}
	for s := ps.cur.step; s < ps.Opt.StepsPerRouteIter; s++ {
		if err := ps.checkCancel(ctx); err != nil {
			return err
		}
		ps.optm.Step(ps.obj)
		if retry, err := ps.guardAfterStep("routability"); err != nil {
			return err
		} else if retry {
			s-- // redo this step from the rolled-back state
			continue
		}
		if ps.obj.lastOverflow > ps.Opt.WLOverflowStop {
			ps.obj.lambda1 *= lambda1RouteGrowth
		}
		ps.cur.step = s + 1
	}
	ps.Res.FinalOverflow = ps.obj.lastOverflow
	return nil
}

// runLegalize snaps the global placement onto legal rows/sites. On
// cancellation the partially legalized positions are rolled back, so the
// checkpoint holds the intact global placement and a resumed legalization
// reproduces the uninterrupted one exactly.
func (ps *PlacementState) runLegalize(ctx context.Context) error {
	if ps.Opt.SkipLegalize {
		return nil
	}
	opt, res, d := &ps.Opt, ps.Res, ps.D
	opt.logf("legalizing %d movable cells", len(d.MovableIndices()))
	sp := ps.startSpan("legalize")
	lg := legalize.New(d)
	lg.Trace = ps.tr
	backup := d.SnapshotPositions()
	disp, _, err := lg.RunContext(ctx)
	if err != nil {
		sp.End()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			d.RestorePositions(backup)
			return err
		}
		return fmt.Errorf("core: %w", err)
	}
	sp.End()
	res.LegalizeDisp = disp
	res.HPWLLegalized = d.HPWL()
	opt.logf("legalized: total displacement %.0f, HPWL %.0f", disp, res.HPWLLegalized)
	return nil
}

// runDetailed runs the legality-preserving refinement passes. Like
// legalization, a cancelled refinement is rolled back to keep the
// checkpointed positions deterministic.
func (ps *PlacementState) runDetailed(ctx context.Context) error {
	if ps.Opt.SkipLegalize || ps.Opt.SkipDetailed {
		return nil
	}
	opt, d := &ps.Opt, ps.D
	sp := ps.startSpan("detailed")
	backup := d.SnapshotPositions()
	dp, err := detailed.RefineContext(ctx, d, detailed.Options{Passes: 2, Trace: ps.tr})
	if err != nil {
		sp.End()
		d.RestorePositions(backup)
		return err
	}
	sp.End()
	opt.logf("detailed placement: %d shifts, %d swaps, HPWL %.0f → %.0f",
		dp.Shifts, dp.Swaps, dp.HPWLBefore, dp.HPWLAfter)
	return nil
}

// runEval is the final routing evaluation (the Innovus stand-in). It never
// mutates the design, so cancellation needs no rollback.
func (ps *PlacementState) runEval(ctx context.Context) error {
	if ps.level > 0 {
		// Coarse levels exist only to seed the next finer level; routing
		// the cluster netlist would measure nothing the flow reports.
		return nil
	}
	opt, res := &ps.Opt, ps.Res
	rStart := time.Now()
	esp := ps.startSpan("eval")
	m, err := eval.EvaluateContext(ctx, ps.D, opt.GridHint, ps.tr)
	if err != nil {
		esp.End()
		return err
	}
	esp.End()
	res.Metrics = m
	res.RouteTime = time.Since(rStart)
	opt.logf("final: DRWL %.0f, vias %d, DRVs %d",
		res.Metrics.DRWL, res.Metrics.DRVias, res.Metrics.DRVs)
	opt.timingf("timing: PT %.2fs, RT %.2fs",
		res.PlaceTime.Seconds(), res.RouteTime.Seconds())
	return nil
}
