// Package nesterov implements the accelerated first-order optimizer of
// ePlace (Lu et al., TODAES 2015) used to solve the placement objective
// (paper Sec. II-A, Eq. 5): Nesterov's method with the a_k momentum sequence
// and a backtracking-free Lipschitz step-size estimate from successive
// preconditioned gradients.
package nesterov

import (
	"fmt"
	"math"
)

// Objective is the function being minimized. Eval writes the gradient at x
// into grad (overwriting it); the method needs only the gradient, so no
// objective value is asked for. Precondition rescales a raw gradient in
// place (ePlace divides by vertex degree + λ·area). Clamp projects a
// candidate point back into the feasible box.
type Objective interface {
	Eval(x []float64, grad []float64)
	Precondition(grad []float64)
	Clamp(x []float64)
}

// Optimizer carries the Nesterov state across iterations for a fixed
// dimension n.
type Optimizer struct {
	// StepMin and StepMax clamp the Lipschitz step estimate.
	StepMin, StepMax float64

	// OnStep, when non-nil, is invoked at the end of every Step with the
	// 0-based cumulative step index (monotone across Resets) and the step
	// size used. The telemetry layer hangs off this; a nil hook adds no
	// overhead and no allocations to the step.
	OnStep func(iter int, step float64)

	steps int // cumulative Step calls

	n     int
	a     float64
	u     []float64 // main sequence
	v     []float64 // reference (lookahead) sequence
	vPrev []float64
	gPrev []float64 // preconditioned gradient at vPrev
	g     []float64
	first bool
	step0 float64
	// stepScale multiplies every step estimate (1 = no scaling). The guard
	// layer's divergence recovery shrinks it via ShrinkStep; it is iteration
	// state (serialized in State) because the retried trajectory depends on
	// it.
	stepScale float64
}

// New creates an optimizer for an n-dimensional problem starting at x0
// (copied), with initial step size step0.
func New(x0 []float64, step0 float64) *Optimizer {
	n := len(x0)
	o := &Optimizer{
		StepMin:   1e-8,
		StepMax:   math.Inf(1),
		n:         n,
		a:         1,
		u:         append([]float64(nil), x0...),
		v:         append([]float64(nil), x0...),
		vPrev:     make([]float64, n),
		gPrev:     make([]float64, n),
		g:         make([]float64, n),
		first:     true,
		step0:     step0,
		stepScale: 1,
	}
	return o
}

// X returns the current reference point (the iterate at which gradients are
// evaluated; also the point callers should read placements from during the
// run). The returned slice aliases internal state — do not modify.
func (o *Optimizer) X() []float64 { return o.v }

// U returns the main-sequence iterate (the converged solution when the run
// stops). Aliases internal state.
func (o *Optimizer) U() []float64 { return o.u }

// Reset re-anchors the optimizer at x0 (e.g. after the problem changed
// discontinuously — new inflation ratios or congestion maps), restarting the
// momentum sequence.
func (o *Optimizer) Reset(x0 []float64) {
	copy(o.u, x0)
	copy(o.v, x0)
	o.a = 1
	o.first = true
}

// Step performs one Nesterov iteration and returns the step size used.
func (o *Optimizer) Step(obj Objective) (step float64) {
	obj.Eval(o.v, o.g)
	obj.Precondition(o.g)

	if o.first {
		step = o.step0 * o.stepScale
		o.first = false
	} else {
		// Inverse local Lipschitz constant: |Δv| / |Δg|.
		var dv, dg float64
		for i := 0; i < o.n; i++ {
			d := o.v[i] - o.vPrev[i]
			dv += d * d
			e := o.g[i] - o.gPrev[i]
			dg += e * e
		}
		if dg > 0 {
			step = math.Sqrt(dv / dg)
		} else {
			step = o.step0
		}
		step *= o.stepScale
		if step < o.StepMin {
			step = o.StepMin
		}
		if step > o.StepMax {
			step = o.StepMax
		}
	}

	copy(o.vPrev, o.v)
	copy(o.gPrev, o.g)

	// u_{k+1} = v_k − α·g ; a_{k+1} ; v_{k+1} = u_{k+1} + ((a_k−1)/a_{k+1})(u_{k+1} − u_k)
	aNew := (1 + math.Sqrt(4*o.a*o.a+1)) / 2
	coef := (o.a - 1) / aNew
	for i := 0; i < o.n; i++ {
		uNew := o.v[i] - step*o.g[i]
		o.v[i] = uNew + coef*(uNew-o.u[i])
		o.u[i] = uNew
	}
	obj.Clamp(o.u)
	obj.Clamp(o.v)
	o.a = aNew
	o.steps++
	if o.OnStep != nil {
		o.OnStep(o.steps-1, step)
	}
	return step
}

// Steps returns the cumulative number of Step calls (across Resets).
func (o *Optimizer) Steps() int { return o.steps }

// ShrinkStep multiplies the optimizer's step estimate by f from now on:
// the initial step and every Lipschitz estimate are scaled by the cumulative
// product of all ShrinkStep calls. The guard layer's divergence recovery
// calls this after rolling back to a last-good snapshot so the retried
// trajectory takes smaller steps. Scaling is iteration state: it is carried
// in State and therefore survives snapshots and checkpoints.
func (o *Optimizer) ShrinkStep(f float64) { o.stepScale *= f }

// StepScale returns the cumulative step-scale factor (1 when never shrunk).
func (o *Optimizer) StepScale() float64 { return o.stepScale }

// State is a complete serializable snapshot of the optimizer's iteration
// state (everything Step reads besides the Objective): the momentum scalar,
// the first-step flag, the cumulative step count and the four iterate
// vectors. StepMin/StepMax/step0 are construction parameters, not state —
// a restorer rebuilds the optimizer with the same construction inputs and
// then applies a State.
type State struct {
	A     float64
	First bool
	Steps int
	// Scale is the cumulative ShrinkStep factor (1 when never shrunk; a
	// zero value is mapped to 1 by SetState for hand-built states).
	Scale float64
	U     []float64
	V     []float64
	VPrev []float64
	GPrev []float64
}

// StateInto copies the iteration state into s, reusing s's vectors' storage
// (a zero State receives fresh copies), so the guard layer's rolling
// last-good snapshot allocates only once.
func (o *Optimizer) StateInto(s *State) {
	s.A = o.a
	s.First = o.first
	s.Steps = o.steps
	s.Scale = o.stepScale
	s.U = append(s.U[:0], o.u...)
	s.V = append(s.V[:0], o.v...)
	s.VPrev = append(s.VPrev[:0], o.vPrev...)
	s.GPrev = append(s.GPrev[:0], o.gPrev...)
}

// SetState overwrites the optimizer's iteration state with a snapshot taken
// from an optimizer of the same dimension. The next Step then behaves
// bitwise-identically to the step the snapshotted optimizer would have
// taken.
func (o *Optimizer) SetState(s State) error {
	if len(s.U) != o.n || len(s.V) != o.n || len(s.VPrev) != o.n || len(s.GPrev) != o.n {
		return fmt.Errorf("nesterov: state dimension %d does not match optimizer dimension %d",
			len(s.U), o.n)
	}
	o.a = s.A
	o.first = s.First
	o.steps = s.Steps
	o.stepScale = s.Scale
	if o.stepScale == 0 {
		// A zero scale would freeze the optimizer; it can only come from a
		// hand-built State that predates the field. Treat it as "unscaled".
		o.stepScale = 1
	}
	copy(o.u, s.U)
	copy(o.v, s.V)
	copy(o.vPrev, s.VPrev)
	copy(o.gPrev, s.GPrev)
	return nil
}
