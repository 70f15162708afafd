// Package jobs is the placement-as-a-service layer: a job manager that runs
// placements submitted over an HTTP/JSON API (see Server) through the
// internal/core pipeline, multiplexed over a bounded worker pool by a
// deterministic multi-tenant scheduler (see sched).
//
// The package's hard invariant mirrors the repo's checkpoint/resume
// contract: a job run through the server — however often it is paused,
// preempted at stage boundaries, or migrated to a fresh process after a
// crash — produces a final placement and a canonical telemetry trace
// byte-identical to the same design/options run straight through
// core.Place. Three mechanisms carry that promise:
//
//   - Preemption and pause use core.BoundaryStop, the scheduled-checkpoint
//     path: the run stops at an explicit stage-graph cursor and the resumed
//     trace is a byte-exact continuation.
//   - Every boundary also persists a checkpoint (core.BoundaryCheckpoint),
//     so a killed process loses at most the work since the last boundary.
//   - On recovery the job's trace file is truncated to exactly the events
//     that preceded the chosen checkpoint (core.CheckpointInfo.TraceSeq),
//     so replayed iterations are not duplicated in the trace.
package jobs

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/designio"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// maxPayloadBytes bounds inline design payloads accepted at submission.
const maxPayloadBytes = 64 << 20

// Spec is a job submission: the design (catalog name or inline payload in
// the designio text format), the placement options, and the job's share of
// the server (worker budget, priority).
//
// Option fields follow the placer CLI's conventions so that a spec and the
// equivalent CLI invocation produce byte-identical placements and canonical
// traces: zero values select the same defaults, and the three technique
// switches default to ON (disable with the no_* negations, mirroring
// -mci=false etc.).
type Spec struct {
	// Design names a synthetic catalog design (see synth.Names). Exactly one
	// of Design and Payload must be set.
	Design string `json:"design,omitempty"`
	// Payload is an inline design in the designio text format.
	Payload string `json:"payload,omitempty"`

	// Mode is "xplace", "xplace-route" or "ours" (default "ours").
	Mode string `json:"mode,omitempty"`

	// Workers is the job's worker budget: the number of pool slots it
	// occupies while running and the Options.Workers its segments run with.
	// 0 selects 1. The budget is clamped to the manager's capacity. Every
	// value yields the identical placement — the budget only buys speed.
	Workers int `json:"workers,omitempty"`
	// Priority orders jobs: higher runs first and may preempt strictly
	// lower-priority jobs at their next stage boundary. Default 0.
	Priority int `json:"priority,omitempty"`

	// Placement options; zero selects the core defaults.
	GridHint          int `json:"grid,omitempty"`
	MaxWLIters        int `json:"max_wl_iters,omitempty"`
	MaxRouteIters     int `json:"max_route_iters,omitempty"`
	StepsPerRouteIter int `json:"steps_per_route_iter,omitempty"`

	// Levels enables the multilevel clustered flow (core.Options.Levels);
	// 0/1 runs flat. ClusterMaxSize follows the core sentinel convention
	// (0 = auto, negative = no cap). Preemption and crash migration work at
	// any hierarchy level: coarse boundary points ("L2/wirelength") are
	// ordinary stage-graph cursors to the scheduler.
	Levels         int `json:"levels,omitempty"`
	ClusterMaxSize int `json:"cluster_max_size,omitempty"`

	// Technique negations (the techniques default to on, as in the CLI).
	NoMCI bool `json:"no_mci,omitempty"`
	NoDC  bool `json:"no_dc,omitempty"`
	NoDPA bool `json:"no_dpa,omitempty"`

	SkipLegalize bool `json:"skip_legalize,omitempty"`
	SkipDetailed bool `json:"skip_detailed,omitempty"`
}

// Validate checks the spec without building the design.
func (s *Spec) Validate() error {
	switch {
	case s.Design == "" && s.Payload == "":
		return fmt.Errorf("jobs: spec needs a design name or an inline payload")
	case s.Design != "" && s.Payload != "":
		return fmt.Errorf("jobs: design name and inline payload are mutually exclusive")
	case len(s.Payload) > maxPayloadBytes:
		return fmt.Errorf("jobs: payload exceeds %d bytes", maxPayloadBytes)
	}
	if s.Design != "" {
		known := false
		for _, n := range synth.Names() {
			if n == s.Design {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("jobs: unknown design %q", s.Design)
		}
	}
	if _, err := s.mode(); err != nil {
		return err
	}
	if s.Workers < 0 || s.Priority < -1000 || s.Priority > 1000 {
		return fmt.Errorf("jobs: workers must be ≥ 0 and priority within ±1000")
	}
	if s.GridHint < 0 || s.MaxWLIters < 0 || s.MaxRouteIters < 0 || s.StepsPerRouteIter < 0 {
		return fmt.Errorf("jobs: option fields must be ≥ 0")
	}
	if s.GridHint > maxGridHint {
		return fmt.Errorf("jobs: grid %d exceeds %d", s.GridHint, maxGridHint)
	}
	for _, f := range []struct {
		name     string
		v, limit int
	}{
		{"max_wl_iters", s.MaxWLIters, maxWLIters},
		{"max_route_iters", s.MaxRouteIters, maxRouteIters},
		{"steps_per_route_iter", s.StepsPerRouteIter, maxStepsPerRouteIter},
	} {
		if f.v > f.limit {
			return fmt.Errorf("jobs: %s %d exceeds %d", f.name, f.v, f.limit)
		}
	}
	if s.Levels < 0 || s.Levels > 8 {
		return fmt.Errorf("jobs: levels must be within [0, 8]")
	}
	return nil
}

// maxGridHint bounds a spec's grid: twice the largest core.DefaultGridHint.
// The density model holds about 17 grid² float64 arrays (tiny_hot at grid
// 2048 peaks at 1219 MiB), so a larger grid would only be OOM-killed and
// relaunched until the retry budget is spent.
const maxGridHint = 1024

// Iteration caps: 10× the core defaults (400 wirelength iterations, 24 route
// iterations, 12 steps per route iteration). The wirelength stage and each
// route iteration are single checkpoint boundaries, so a larger value would
// hold a worker for hours with nothing to preempt or migrate at.
const (
	maxWLIters           = 4000
	maxRouteIters        = 240
	maxStepsPerRouteIter = 120
)

func (s *Spec) mode() (core.Mode, error) {
	switch s.Mode {
	case "xplace":
		return core.ModeWirelength, nil
	case "xplace-route":
		return core.ModeBaselineRoute, nil
	case "", "ours":
		return core.ModeOurs, nil
	default:
		return 0, fmt.Errorf("jobs: unknown mode %q", s.Mode)
	}
}

// DesignName is the display name: the catalog name, or the inline payload's
// own design name once parsed (best-effort "inline" before that).
func (s *Spec) DesignName() string {
	if s.Design != "" {
		return s.Design
	}
	return "inline"
}

// BuildDesign constructs the design to place. Deterministic: every segment
// of a job (including one resumed in a fresh process) rebuilds the
// identical netlist.
func (s *Spec) BuildDesign() (*netlist.Design, error) {
	if s.Design != "" {
		return synth.Generate(s.Design)
	}
	d, err := designio.Read(strings.NewReader(s.Payload))
	if err != nil {
		return nil, fmt.Errorf("jobs: inline payload: %w", err)
	}
	return d, nil
}

// coreOptions maps the spec onto core.Options. Environment fields (Workers,
// Observer, checkpointing) are the manager's business and left unset.
func (s *Spec) coreOptions() core.Options {
	mode, _ := s.mode() // Validate ran at submission
	return core.Options{
		Mode: mode,
		Tech: core.Techniques{
			MCI: !s.NoMCI,
			DC:  !s.NoDC,
			DPA: !s.NoDPA,
		},
		GridHint:          s.GridHint,
		MaxWLIters:        s.MaxWLIters,
		MaxRouteIters:     s.MaxRouteIters,
		StepsPerRouteIter: s.StepsPerRouteIter,
		Levels:            s.Levels,
		ClusterMaxSize:    s.ClusterMaxSize,
		SkipLegalize:      s.SkipLegalize,
		SkipDetailed:      s.SkipDetailed,
	}
}
