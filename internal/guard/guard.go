// Package guard is the numeric-integrity and fault-recovery layer of the
// placement pipeline. ePlace-family optimizers are fragile: one NaN in a
// wirelength gradient or one poisoned Poisson bin propagates through the
// spectral solve and the Nesterov update into every coordinate within a
// single step. The guard layer runs cheap deterministic sentinel scans at
// pipeline hook points and — depending on the configured policy — warns,
// rolls the run back to a last-good snapshot with a shrunken step, or fails
// with a typed error.
//
// The package itself is policy and detection only; the rollback machinery
// (what a snapshot contains, where the hooks sit) lives in internal/core,
// and the deterministic fault injections that exercise it live in
// internal/guard/inject.
package guard

import (
	"errors"
	"fmt"
	"strings"
)

// Policy selects how the pipeline reacts to a sentinel violation. The zero
// value is Off, so a zero guard configuration changes nothing — canonical
// traces and benchmark baselines of unguarded runs stay byte-identical.
type Policy int

const (
	// Off disables all sentinel scans (and their telemetry counters).
	Off Policy = iota
	// Warn scans and logs violations but lets the run continue. Useful for
	// diagnosis; a real NaN will still corrupt the run downstream.
	Warn
	// Recover scans, and on a violation rolls the optimizer back to the
	// rolling last-good snapshot, shrinks the step estimate by the backoff
	// factor and retries — up to MaxRetries times, then the run fails with
	// ErrBudgetExhausted.
	Recover
	// Fail scans and stops the run with ErrViolation on the first hit.
	Fail
)

func (p Policy) String() string {
	switch p {
	case Off:
		return "off"
	case Warn:
		return "warn"
	case Recover:
		return "recover"
	case Fail:
		return "fail"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a flag string ("off", "warn", "recover", "fail")
// into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off":
		return Off, nil
	case "warn":
		return Warn, nil
	case "recover":
		return Recover, nil
	case "fail":
		return Fail, nil
	default:
		return Off, fmt.Errorf("guard: unknown policy %q (want off|warn|recover|fail)", s)
	}
}

// Config configures the guard layer of one placement run. It follows the
// core.Options sentinel convention: 0 selects the documented default,
// negative selects the literal zero where zero is meaningful.
type Config struct {
	// Policy is the reaction to a sentinel violation; the zero value Off
	// disables guarding entirely.
	Policy Policy
	// MaxRetries bounds the number of rollback recoveries per run under
	// Policy Recover (default 3; negative means zero retries — the first
	// violation exhausts the budget).
	MaxRetries int
	// Backoff is the deterministic factor the step estimate is multiplied
	// by on every recovery (default 0.5; must end up in (0,1)).
	Backoff float64
	// CheckEvery runs the sentinel scan every Nth optimizer step
	// (default 1: every step). Violations between scans are caught at the
	// next scheduled scan; the rolling snapshot is captured at the same
	// cadence.
	CheckEvery int
}

// Enabled reports whether any guarding is active.
func (c Config) Enabled() bool { return c.Policy != Off }

// SetDefaults resolves the sentinel values in place.
func (c *Config) SetDefaults() {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Backoff == 0 {
		c.Backoff = 0.5
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 1
	}
}

// Validate rejects configurations that cannot work (a backoff outside (0,1)
// would not shrink the step).
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		return fmt.Errorf("guard: backoff %g outside (0,1)", c.Backoff)
	}
	return nil
}

// ErrViolation is the typed failure a Fail-policy run (or an unrecoverable
// Recover-policy violation) returns; the wrapped message carries the
// Violation detail.
var ErrViolation = errors.New("guard: numeric invariant violated")

// ErrBudgetExhausted is returned when Recover has used all MaxRetries
// rollbacks and a sentinel fires again.
var ErrBudgetExhausted = errors.New("guard: divergence retry budget exhausted")

// Violation describes one failed sentinel scan.
type Violation struct {
	// Sentinel names the failed invariant: "positions", "gradient_state",
	// "wirelength", "overflow", "density_field", "cells_outside_die",
	// "inflation", "congestion_score".
	Sentinel string
	// Where is the pipeline hook point, e.g. "wirelength:12" or
	// "routability:3.2" (iteration.step).
	Where string
	// Index is the offending vector element, or -1 when not applicable.
	Index int
	// Value is the offending value.
	Value float64
}

func (v *Violation) String() string {
	if v.Index >= 0 {
		return fmt.Sprintf("%s sentinel at %s: value %v at index %d", v.Sentinel, v.Where, v.Value, v.Index)
	}
	return fmt.Sprintf("%s sentinel at %s: value %v", v.Sentinel, v.Where, v.Value)
}

// FirstNonFinite returns the index of the first NaN or ±Inf in v, or -1
// when every element is finite.
func FirstNonFinite(v []float64) int {
	for i, x := range v {
		// x-x is 0 for finite x and NaN for NaN/±Inf: one branch per
		// element instead of two math.IsNaN/IsInf calls.
		if x-x != 0 {
			return i
		}
	}
	return -1
}

// CheckFinite scans a vector and returns a Violation for the first
// non-finite element, or nil.
func CheckFinite(sentinel, where string, v []float64) *Violation {
	if i := FirstNonFinite(v); i >= 0 {
		return &Violation{Sentinel: sentinel, Where: where, Index: i, Value: v[i]}
	}
	return nil
}

// CheckScalar returns a Violation when x is NaN or ±Inf.
func CheckScalar(sentinel, where string, x float64) *Violation {
	if x-x != 0 {
		return &Violation{Sentinel: sentinel, Where: where, Index: -1, Value: x}
	}
	return nil
}

// CheckRange returns a Violation when x is non-finite or outside [lo, hi].
func CheckRange(sentinel, where string, x, lo, hi float64) *Violation {
	if !(x >= lo && x <= hi) { // NaN fails both comparisons
		return &Violation{Sentinel: sentinel, Where: where, Index: -1, Value: x}
	}
	return nil
}
