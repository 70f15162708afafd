package core

// The guard layer's pipeline integration: invariant sentinels scanned after
// optimizer steps, the rolling last-good snapshot, and the rollback/backoff
// recovery path. Policy and detection primitives live in internal/guard;
// the deterministic fault injections that exercise this file live in
// internal/guard/inject and are wired in buildRuntime.
//
// Recovery granularity is the optimizer step: the snapshot captures exactly
// the state a Nesterov step mutates (the nesterov.State including the
// cumulative step scale, the λ/γ schedule scalars and the last-eval stats).
// Adaptation-time state (inflation ratios, PG density, congestion fields)
// is not snapshotted — a violation that survives a rollback retry simply
// burns the retry budget and surfaces as a typed error. All decisions are
// pure functions of deterministic values, so a recovered run stays
// byte-identical across worker counts.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/guard"
	"repro/internal/guard/inject"
	"repro/internal/nesterov"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// ErrDegenerateDesign is returned by Place/PlaceContext when the design
// cannot be meaningfully placed (no movable cells, no multi-pin nets, or a
// zero-area die) — a clean typed error instead of a downstream panic.
var ErrDegenerateDesign = errors.New("core: degenerate design")

// validatePlaceable guards the pipeline entry against degenerate designs.
// It assumes d already passed netlist.Design.Validate (referential
// integrity); this checks the placement-specific preconditions on top.
func validatePlaceable(d *netlist.Design) error {
	if d.Die.W() <= 0 || d.Die.H() <= 0 {
		return fmt.Errorf("%w: die %v has zero area", ErrDegenerateDesign, d.Die)
	}
	movable := 0
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			movable++
		}
	}
	if movable == 0 {
		return fmt.Errorf("%w: no movable cells (%d cells total)", ErrDegenerateDesign, len(d.Cells))
	}
	multiPin := 0
	for ni := range d.Nets {
		if len(d.Nets[ni].Pins) >= 2 {
			multiPin++
		}
	}
	if multiPin == 0 {
		return fmt.Errorf("%w: no net with ≥2 pins (%d nets total)", ErrDegenerateDesign, len(d.Nets))
	}
	return nil
}

// gpSnapshot is the rolling last-good state divergence recovery rolls back
// to: everything an optimizer step mutates. Buffers are reused between
// captures, so the steady-state capture cost is four vector copies.
type gpSnapshot struct {
	valid                      bool
	nes                        nesterov.State
	gamma, lambda1, lambda2    float64
	lastWL, lastOv, lastGradL1 float64
}

// guardRuntime is the per-run state of the guard layer; nil when
// Options.Guard.Policy is Off, so unguarded runs pay one pointer comparison
// per step and register no extra telemetry metrics (canonical traces stay
// unchanged).
type guardRuntime struct {
	cfg        guard.Config
	violations *telemetry.Counter
	recoveries *telemetry.Counter
	retries    int // recoveries used so far (serialized in checkpoints)
	last       gpSnapshot
}

// initGuard builds the guard runtime when guarding is enabled; validateRun
// has checked the config. The guard.violations / guard.recoveries counters
// are resolved here — and only here — so a guards-Off run's metrics
// registry (and therefore its flushed trace) is byte-identical to a build
// without the guard layer.
func (ps *PlacementState) initGuard() {
	if cfg := ps.Opt.Guard; cfg.Enabled() {
		ps.grd = &guardRuntime{
			cfg:        cfg,
			violations: ps.obs.Counter("guard.violations"),
			recoveries: ps.obs.Counter("guard.recoveries"),
		}
	}
}

// wireInjector hooks the deterministic fault injector (tests only; nil in
// production) into the runtime models: the objective gets the WA-gradient
// fault, the density model's RhoHook gets the Poisson-bin fault. Checkpoint
// faults are applied in writeCheckpointNow and the cancel fault in
// checkCancel.
func (ps *PlacementState) wireInjector() {
	inj := ps.Opt.FaultInjector
	if inj == nil {
		return
	}
	ps.obj.inject = inj
	solves := 0
	ps.dens.RhoHook = func(rho []float64) {
		if inj.ShouldFire(inject.PoissonBin, solves) {
			rho[inj.Index(inject.PoissonBin, len(rho))] = math.Inf(1)
		}
		solves++
	}
}

// writeCheckpointNow captures the run state and writes it to
// Options.CheckpointPath (rotating any previous checkpoint file to ".prev"
// first — see writeCheckpointFile), then applies the post-write checkpoint
// faults when the injector is armed for this write.
func (ps *PlacementState) writeCheckpointNow() error {
	path := ps.Opt.CheckpointPath
	if err := writeCheckpointFile(path, ps.capture()); err != nil {
		return err
	}
	if inj := ps.Opt.FaultInjector; inj != nil {
		if inj.ShouldFire(inject.CkptCorrupt, ps.ckptWrites) {
			if err := inj.CorruptFile(path); err != nil {
				return err
			}
		}
		if inj.ShouldFire(inject.CkptTruncate, ps.ckptWrites) {
			if err := inj.TruncateFile(path); err != nil {
				return err
			}
		}
	}
	ps.ckptWrites++
	return nil
}

// checkCancel is the cooperative cancellation check of the step loops, plus
// the deterministic stand-in the Cancel fault injects: when the injector is
// armed for the current optimizer step, the run behaves exactly as if its
// context had been cancelled there.
func (ps *PlacementState) checkCancel(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ps.optm != nil && ps.Opt.FaultInjector.ShouldFire(inject.Cancel, ps.optm.Steps()) {
		return context.Canceled
	}
	return nil
}

// guardAfterStep runs the sentinel scan after an optimizer step (every
// cfg.CheckEvery steps). It returns retry=true when the caller must redo
// the step it just took (the state has been rolled back to the last-good
// snapshot with a shrunken step), or a typed error when the policy is Fail
// or the retry budget is exhausted.
func (ps *PlacementState) guardAfterStep(where string) (retry bool, err error) {
	g := ps.grd
	if g == nil {
		return false, nil
	}
	if g.cfg.CheckEvery > 1 && ps.optm.Steps()%g.cfg.CheckEvery != 0 {
		return false, nil
	}
	v := ps.scanInvariants(where)
	if v == nil {
		if g.cfg.Policy == guard.Recover {
			g.capture(ps)
		}
		return false, nil
	}
	g.violations.Inc()
	switch g.cfg.Policy {
	case guard.Warn:
		ps.Opt.logf("guard: violation: %s (policy warn: continuing)", v)
		return false, nil
	case guard.Recover:
		if !g.last.valid {
			return false, fmt.Errorf("%w: %s (no last-good snapshot to roll back to)",
				guard.ErrViolation, v)
		}
		if g.retries >= g.cfg.MaxRetries {
			return false, fmt.Errorf("%w: %d recoveries used, then %s",
				guard.ErrBudgetExhausted, g.retries, v)
		}
		g.retries++
		g.recoveries.Inc()
		g.restore(ps)
		ps.optm.ShrinkStep(g.cfg.Backoff)
		ps.Opt.logf("guard: violation: %s — rolled back to last-good state, step scale %g (recovery %d/%d)",
			v, ps.optm.StepScale(), g.retries, g.cfg.MaxRetries)
		return true, nil
	default: // guard.Fail
		return false, fmt.Errorf("%w: %s", guard.ErrViolation, v)
	}
}

// scanInvariants runs the cheap deterministic sentinels: NaN/Inf in the
// optimizer iterates (which covers positions, fillers and any gradient NaN
// from the step that produced them), the last objective stats, cell centers
// outside the die, and the density/Poisson field.
func (ps *PlacementState) scanInvariants(where string) *guard.Violation {
	if v := guard.CheckFinite("positions", where, ps.optm.U()); v != nil {
		return v
	}
	if v := guard.CheckFinite("positions", where, ps.optm.X()); v != nil {
		return v
	}
	if v := guard.CheckScalar("wirelength", where, ps.obj.lastWL); v != nil {
		return v
	}
	if v := guard.CheckRange("overflow", where, ps.obj.lastOverflow, 0, math.MaxFloat64); v != nil {
		return v
	}
	d := ps.D
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() {
			continue
		}
		if !(c.X >= d.Die.Lo.X && c.X <= d.Die.Hi.X && c.Y >= d.Die.Lo.Y && c.Y <= d.Die.Hi.Y) {
			return &guard.Violation{Sentinel: "cells_outside_die", Where: where, Index: ci, Value: c.X}
		}
	}
	if field, idx, val, ok := ps.dens.ScanNonFinite(); !ok {
		return &guard.Violation{Sentinel: "density_field_" + field, Where: where, Index: idx, Value: val}
	}
	return nil
}

// capture refreshes the rolling last-good snapshot (buffer-reusing).
func (g *guardRuntime) capture(ps *PlacementState) {
	ps.optm.StateInto(&g.last.nes)
	g.last.gamma = ps.wl.Gamma()
	g.last.lambda1 = ps.obj.lambda1
	g.last.lambda2 = ps.obj.lambda2
	g.last.lastWL = ps.obj.lastWL
	g.last.lastOv = ps.obj.lastOverflow
	g.last.lastGradL1 = ps.obj.lastWLGradL1
	g.last.valid = true
}

// restore rolls the optimizer, the λ/γ schedule and the design positions
// back to the last-good snapshot. The density/congestion models need no
// rollback: their fields are recomputed from scratch on the next
// evaluation, and their externally-set state (inflation ratios, PG density)
// is not touched by optimizer steps.
func (g *guardRuntime) restore(ps *PlacementState) {
	// Dimensions always match: the snapshot came from this optimizer.
	if err := ps.optm.SetState(g.last.nes); err != nil {
		panic("core: guard snapshot dimension mismatch: " + err.Error())
	}
	ps.wl.SetGamma(g.last.gamma)
	ps.obj.lambda1 = g.last.lambda1
	ps.obj.lambda2 = g.last.lambda2
	ps.obj.lastWL = g.last.lastWL
	ps.obj.lastOverflow = g.last.lastOv
	ps.obj.lastWLGradL1 = g.last.lastGradL1
	ps.obj.scatter(ps.optm.U())
}
