// Package core assembles the full routability-driven global placement flow
// of the paper (Fig. 2): initial wirelength-driven electrostatic placement,
// the routability loop (global routing → momentum cell inflation → dynamic
// PG density → congestion gradients → Nesterov steps), and the finishing
// legalization + detailed placement. Three placer modes reproduce the Table I
// columns, and per-technique switches reproduce the Table II ablation.
package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/eval"
	"repro/internal/guard"
	"repro/internal/guard/inject"
	"repro/internal/telemetry"
)

// Mode selects which placer of Table I runs.
type Mode int

const (
	// ModeWirelength is the pure wirelength-driven placer (the paper's
	// Xplace column): no routability optimization at all.
	ModeWirelength Mode = iota
	// ModeBaselineRoute approximates Xplace-Route: monotone cell inflation
	// from the congestion map plus a one-shot static PG-rail density
	// pre-adjustment — no net moving, no momentum, no dynamic adaptation.
	ModeBaselineRoute
	// ModeOurs is the paper's framework with all three techniques
	// (configurable individually through Techniques for the ablation).
	ModeOurs
)

func (m Mode) String() string {
	switch m {
	case ModeWirelength:
		return "xplace"
	case ModeBaselineRoute:
		return "xplace-route"
	case ModeOurs:
		return "ours"
	default:
		return "unknown"
	}
}

// ParseMode is the inverse of Mode.String: it maps the mode name that
// cmd/placer's -mode flag and a job spec's "mode" field take to its Mode.
func ParseMode(name string) (Mode, error) {
	for m := ModeWirelength; m <= ModeOurs; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

// Techniques toggles the paper's three contributions inside ModeOurs,
// mirroring Table II's MCI / DC / DPA columns, plus the extra ablation knobs
// indexed in DESIGN.md.
type Techniques struct {
	// MCI enables momentum-based cell inflation (Sec. III-B); when false,
	// the monotone baseline inflator is used instead.
	MCI bool
	// DC enables the differentiable congestion term with net moving
	// (Sec. III-A).
	DC bool
	// DPA enables dynamic pin-accessibility density adjustment (Sec. III-C).
	DPA bool

	// MomentumAlpha overrides Eq. 11's α when positive (ablation A1).
	MomentumAlpha float64
	// InflationScheme overrides the inflation policy regardless of MCI:
	// "momentum", "monotonic" or "present" (the memoryless prior-art scheme
	// of DREAMPlace/RePlAce the paper's Sec. I criticizes). Empty selects by
	// the MCI flag.
	InflationScheme string
	// CongestionThreshold overrides Algorithm 2's multi-pin congestion
	// threshold (paper default 0.7) when positive.
	CongestionThreshold float64
	// FixedLambda2 disables Eq. 10 and uses this constant λ₂ when positive
	// (ablation A2).
	FixedLambda2 float64
	// VirtualAtMidpoint places virtual cells at segment midpoints instead
	// of the Eq. 8 max-congestion point (ablation A3).
	VirtualAtMidpoint bool
}

// AllTechniques returns the full paper configuration.
func AllTechniques() Techniques { return Techniques{MCI: true, DC: true, DPA: true} }

// Options configures a placement run.
//
// Sentinel convention: for every numeric option whose zero value is itself a
// meaningful setting, 0 selects the documented default and any NEGATIVE value
// selects the literal zero. This avoids the classic zero-value trap where
// Options{WLOverflowStop: 0} silently becomes 0.12: callers who really want
// "threshold 0" or "no patience" pass -1.
type Options struct {
	Mode Mode
	Tech Techniques

	// GridHint sets the bin/G-cell resolution (power-of-two rounded); 0
	// chooses automatically from the design size.
	GridHint int
	// MaxWLIters bounds the wirelength-driven phase (default 400).
	MaxWLIters int
	// WLOverflowStop ends the wirelength phase at this density overflow
	// (default 0.12). Zero is a meaningful threshold ("never stop early"),
	// so the sentinel convention applies: 0 selects the default, a negative
	// value selects threshold 0.
	WLOverflowStop float64
	// MaxRouteIters bounds the routability loop (default 24).
	MaxRouteIters int
	// StepsPerRouteIter is the number of Nesterov steps between router
	// invocations (default 12).
	StepsPerRouteIter int
	// CongestionPatience stops the routability loop after this many
	// non-improving router calls (Fig. 2's "C(x,y) no longer decreases";
	// default 4). Zero patience ("stop at the first non-improving call")
	// is meaningful, so the sentinel convention applies: 0 selects the
	// default, a negative value selects zero patience.
	CongestionPatience int

	// Levels enables the multilevel clustered flow: the design is coarsened
	// Levels−1 times by internal/cluster, placed coarsest-first, and each
	// solution is interpolated down to seed the next finer level. 0 or 1
	// runs the flat single-level pipeline (the default). Coarse levels run
	// global placement only (no legalization/detailed/eval) with a grid
	// auto-sized from the coarse cell count; the finest level runs the full
	// pipeline under the caller's options. Every Workers setting still
	// produces byte-identical placements, and checkpoint/resume works at any
	// level (boundary points gain an "L<k>/" prefix on coarse levels, e.g.
	// "L2/wirelength", "L1/route_iter:3").
	Levels int
	// ClusterMaxSize caps the number of base cells a cluster may absorb
	// across the whole hierarchy (see cluster.Coarsen). Only meaningful with
	// Levels ≥ 2. Sentinel convention: 0 selects the default 4^(Levels−1)
	// (each level targets a ~4× reduction), a negative value removes the
	// cap entirely.
	ClusterMaxSize int

	// CheckpointPath, when non-empty, is where the run writes its state
	// checkpoint: at the scheduled CheckpointAfter point, or — on context
	// cancellation — at the last consistent pipeline position reached. The
	// file is written atomically (temp file + rename). Empty disables
	// checkpointing.
	CheckpointPath string
	// CheckpointAfter schedules a checkpoint-and-stop: when the named
	// pipeline point completes, the state is written to CheckpointPath and
	// the run returns ErrCheckpointed. Valid points are the stage names
	// "setup", "wirelength", "routability", "legalize", "detailed", and
	// "route_iter:K" (after route iteration K of the routability loop
	// completes, 0-based). A point the run never reaches (e.g. a route
	// iteration after the loop converged) lets the run finish normally.
	// Empty disables scheduled checkpoints. Requires CheckpointPath.
	CheckpointAfter string

	// BoundaryHook, when non-nil, is consulted at every checkpoint boundary —
	// after each finished stage and after each completed route iteration, the
	// same points CheckpointAfter can name. The point string is the boundary's
	// name ("wirelength", "route_iter:3", …). The returned BoundaryAction lets
	// a supervisor (the job server's scheduler) persist the run's state
	// mid-flight or stop it cooperatively:
	//
	//   - BoundaryContinue: nothing happens.
	//   - BoundaryCheckpoint: the state is written to CheckpointPath and the
	//     run continues. Capturing is read-only and emits no telemetry, so
	//     periodic persistence never perturbs the run or its trace.
	//   - BoundaryStop: the state is written to CheckpointPath and the run
	//     stops with ErrCheckpointed — exactly the scheduled-checkpoint path,
	//     so a resume is a byte-exact trace continuation. This is the
	//     pause/preemption primitive: the stage-graph cursor makes the stop
	//     point explicit and the resume deterministic.
	//
	// Checkpointing actions require CheckpointPath and are ignored without it.
	// BoundaryHook is environment, not algorithm state: it is never serialized
	// into checkpoints and always taken from the caller on resume.
	BoundaryHook func(point string) BoundaryAction

	// DisableCancelCheckpoint suppresses the best-effort checkpoint normally
	// written to CheckpointPath when the run is cancelled. The job server sets
	// it: cancellation checkpoints are taken mid-step (position-identical but
	// not trace-identical on resume), and a supervisor that persists scheduled
	// boundary checkpoints must not let a cancellation overwrite its last
	// trace-exact migration point.
	DisableCancelCheckpoint bool

	// Workers caps the goroutines used by the parallel kernels (wirelength
	// gradient, density rasterization, Poisson transforms, congestion
	// gradient and the router's cost fields). 0 selects
	// runtime.GOMAXPROCS(0); 1 runs fully
	// serial. Every setting produces byte-identical placements: all parallel
	// reductions merge a fixed number of shards in fixed index order, so
	// the float summation tree never depends on the worker count.
	Workers int

	// Guard configures the numeric guardrails (invariant sentinels and
	// divergence recovery; see internal/guard and DESIGN.md §9). The zero
	// value — policy Off — disables guarding entirely: no sentinel scans, no
	// extra telemetry metrics, byte-identical traces to builds without the
	// guard layer. Guard settings are serialized into checkpoints and follow
	// the same merge rules as the algorithm options.
	Guard guard.Config

	// FaultInjector, when non-nil, arms deterministic fault injection at the
	// named points of internal/guard/inject (tests and chaos runs only; nil
	// in production). It is environment, not algorithm state: never
	// serialized into checkpoints, always taken from the caller.
	FaultInjector *inject.Registry

	// SkipLegalize and SkipDetailed shorten test runs.
	SkipLegalize bool
	SkipDetailed bool

	// Log, when non-nil, receives progress lines.
	Log io.Writer

	// Observer, when non-nil, receives the run's full telemetry: the
	// hierarchical span trace, per-iteration snapshots, the log events
	// (every Log line is also a trace event, so text logs and traces can
	// never drift apart) and the metrics registry. The same Observer may
	// be shared across several Place calls; the caller flushes it. A nil
	// Observer disables all instrumentation at zero cost.
	Observer *telemetry.Observer
}

// DefaultGridHint picks the bin/G-cell resolution for a design size; the
// density bins and routing G-cells share it (paper Sec. II-B).
func DefaultGridHint(numCells int) int {
	switch {
	case numCells <= 800:
		return 32
	case numCells <= 8000:
		return 64
	case numCells <= 80000:
		return 128
	case numCells <= 400000:
		return 256
	default:
		return 512
	}
}

func (o *Options) setDefaults(numCells int) {
	if o.GridHint == 0 {
		o.GridHint = DefaultGridHint(numCells)
	}
	if o.MaxWLIters == 0 {
		o.MaxWLIters = 400
	}
	// WLOverflowStop and CongestionPatience follow the sentinel convention
	// documented on Options: 0 = default, negative = literal zero.
	if o.WLOverflowStop == 0 {
		o.WLOverflowStop = 0.12
	} else if o.WLOverflowStop < 0 {
		o.WLOverflowStop = 0
	}
	if o.MaxRouteIters == 0 {
		o.MaxRouteIters = 24
	}
	if o.StepsPerRouteIter == 0 {
		o.StepsPerRouteIter = 12
	}
	if o.CongestionPatience == 0 {
		o.CongestionPatience = 4
	} else if o.CongestionPatience < 0 {
		o.CongestionPatience = 0
	}
	// Levels 0 and 1 both select the flat flow, stored as 0. ClusterMaxSize
	// follows the sentinel convention: negative selects no cap, stored as 0.
	if o.Levels == 1 {
		o.Levels = 0
	}
	if o.ClusterMaxSize < 0 {
		o.ClusterMaxSize = 0
	} else if o.ClusterMaxSize == 0 && o.Levels > 1 {
		o.ClusterMaxSize = 1 << (2 * (o.Levels - 1)) // 4^(Levels−1)
	}
	if o.Guard.Enabled() {
		o.Guard.SetDefaults()
	}
}

// withEnvironment returns o with env's environment fields: where the run
// reports and persists, never what it computes. They are the fields a
// checkpoint leaves out and a resume takes from its caller.
func (o Options) withEnvironment(env Options) Options {
	o.Workers = env.Workers
	o.Log = env.Log
	o.Observer = env.Observer
	o.CheckpointPath = env.CheckpointPath
	o.CheckpointAfter = env.CheckpointAfter
	o.BoundaryHook = env.BoundaryHook
	o.DisableCancelCheckpoint = env.DisableCancelCheckpoint
	o.FaultInjector = env.FaultInjector
	return o
}

// logf emits one progress line to BOTH sinks from a single call site: the
// plain-text Log writer and (as a deterministic "log" trace event) the
// Observer. Messages must not interpolate wall-clock times — use timingf
// for those so determinism-checked traces stay clean.
func (o *Options) logf(format string, args ...any) {
	if o.Log == nil && o.Observer == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	o.Observer.Log(msg)
	if o.Log != nil {
		fmt.Fprintln(o.Log, msg)
	}
}

// timingf is logf for messages carrying wall-clock content; the trace
// event is kind "timing", which telemetry.StripTimings removes when
// canonicalizing a trace for run-to-run comparison.
func (o *Options) timingf(format string, args ...any) {
	if o.Log == nil && o.Observer == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	o.Observer.Timing(msg)
	if o.Log != nil {
		fmt.Fprintln(o.Log, msg)
	}
}

// Result reports a finished placement run.
type Result struct {
	Mode Mode

	// PlaceTime is the total placement runtime (the paper's PT).
	PlaceTime time.Duration
	// RouteTime is the final evaluation routing runtime (the paper's RT
	// proxy — see DESIGN.md on the Innovus substitution).
	RouteTime time.Duration

	// Metrics is the post-route scorecard (DRWL, #DRVias, #DRVs).
	Metrics eval.Metrics

	// HPWL after each stage, for diagnostics.
	HPWLGlobal    float64
	HPWLLegalized float64
	HPWLFinal     float64

	WLIters int
	// RouteIters counts router invocations of the routability loop; it
	// always equals len(CongestionHistory).
	RouteIters int
	// FinalOverflow is the density overflow at the end of global placement.
	FinalOverflow float64
	// CongestionHistory is the weighted congestion after each router call.
	CongestionHistory []float64
	// LegalizeDisp is the total legalization displacement.
	LegalizeDisp float64

	// StageTimings breaks the run down by pipeline stage (span name,
	// count, total duration) in first-seen order, covering both PlaceTime
	// and RouteTime spans. Populated only when Options.Observer is set.
	StageTimings []telemetry.StageTiming
}
