package nesterov

import (
	"math"
	"testing"
)

// quadratic is ½ Σ k_i (x_i − c_i)² with optional box clamping.
type quadratic struct {
	k, c     []float64
	lo, hi   float64
	clamped  bool
	precondK bool
}

func (q *quadratic) Eval(x, grad []float64) {
	for i := range x {
		grad[i] = q.k[i] * (x[i] - q.c[i])
	}
}

// value returns the quadratic's value at x.
func (q *quadratic) value(x []float64) float64 {
	var f float64
	for i := range x {
		d := x[i] - q.c[i]
		f += 0.5 * q.k[i] * d * d
	}
	return f
}

func (q *quadratic) Precondition(grad []float64) {
	if !q.precondK {
		return
	}
	for i := range grad {
		grad[i] /= q.k[i]
	}
}

func (q *quadratic) Clamp(x []float64) {
	if !q.clamped {
		return
	}
	for i := range x {
		if x[i] < q.lo {
			x[i] = q.lo
		}
		if x[i] > q.hi {
			x[i] = q.hi
		}
	}
}

func TestConvergesOnWellConditionedQuadratic(t *testing.T) {
	n := 20
	q := &quadratic{k: make([]float64, n), c: make([]float64, n)}
	for i := range q.k {
		q.k[i] = 1
		q.c[i] = float64(i) - 10
	}
	x0 := make([]float64, n)
	o := New(x0, 0.1)
	for it := 0; it < 300; it++ {
		o.Step(q)
	}
	for i, u := range o.U() {
		if math.Abs(u-q.c[i]) > 1e-3 {
			t.Fatalf("x[%d] = %v, want %v", i, u, q.c[i])
		}
	}
}

func TestConvergesOnIllConditionedWithPreconditioner(t *testing.T) {
	n := 10
	q := &quadratic{k: make([]float64, n), c: make([]float64, n), precondK: true}
	for i := range q.k {
		q.k[i] = math.Pow(10, float64(i%4)) // condition number 1000
		q.c[i] = 3
	}
	x0 := make([]float64, n)
	o := New(x0, 0.1)
	for it := 0; it < 500; it++ {
		o.Step(q)
	}
	for i, u := range o.U() {
		if math.Abs(u-3) > 1e-2 {
			t.Fatalf("x[%d] = %v, want 3", i, u)
		}
	}
}

func TestObjectiveDecreasesOverall(t *testing.T) {
	n := 8
	q := &quadratic{k: make([]float64, n), c: make([]float64, n)}
	for i := range q.k {
		q.k[i] = 2
		q.c[i] = 5
	}
	o := New(make([]float64, n), 0.05)
	first := q.value(o.X())
	for it := 0; it < 101; it++ {
		o.Step(q)
	}
	if last := q.value(o.U()); last >= first {
		t.Errorf("objective did not decrease: first %v last %v", first, last)
	}
}

func TestClampKeepsIteratesInBox(t *testing.T) {
	n := 4
	q := &quadratic{k: []float64{1, 1, 1, 1}, c: []float64{100, -100, 100, -100},
		lo: -10, hi: 10, clamped: true}
	o := New(make([]float64, n), 0.5)
	for it := 0; it < 100; it++ {
		o.Step(q)
		for _, u := range o.U() {
			if u < -10-1e-12 || u > 10+1e-12 {
				t.Fatalf("iterate %v escaped the box", u)
			}
		}
	}
	// Must converge to the box boundary nearest each target.
	want := []float64{10, -10, 10, -10}
	for i, u := range o.U() {
		if math.Abs(u-want[i]) > 1e-6 {
			t.Errorf("x[%d] = %v, want %v", i, u, want[i])
		}
	}
}

func TestResetRestartsMomentum(t *testing.T) {
	q := &quadratic{k: []float64{1}, c: []float64{10}}
	o := New([]float64{0}, 0.1)
	for it := 0; it < 50; it++ {
		o.Step(q)
	}
	o.Reset([]float64{-5})
	if o.X()[0] != -5 || o.U()[0] != -5 {
		t.Fatalf("Reset did not move the iterate")
	}
	for it := 0; it < 200; it++ {
		o.Step(q)
	}
	if math.Abs(o.U()[0]-10) > 1e-3 {
		t.Errorf("after reset did not reconverge: %v", o.U()[0])
	}
}

func TestStepClampsApply(t *testing.T) {
	q := &quadratic{k: []float64{1}, c: []float64{10}}
	o := New([]float64{0}, 0.1)
	o.StepMax = 0.02
	o.Step(q) // first step uses step0 regardless
	for it := 0; it < 10; it++ {
		if step := o.Step(q); step > 0.02+1e-15 {
			t.Fatalf("step %v exceeds StepMax", step)
		}
	}
	o2 := New([]float64{0}, 0.1)
	o2.StepMin = 0.5
	o2.Step(q)
	if step := o2.Step(q); step < 0.5 {
		t.Errorf("step %v below StepMin", step)
	}
}

func TestOnStepHookObservesEveryStep(t *testing.T) {
	q := &quadratic{k: []float64{1}, c: []float64{10}}
	o := New([]float64{0}, 0.1)
	var iters []int
	var steps, returned []float64
	o.OnStep = func(it int, step float64) {
		iters = append(iters, it)
		steps = append(steps, step)
	}
	for i := 0; i < 5; i++ {
		returned = append(returned, o.Step(q))
	}
	o.Reset([]float64{0})
	returned = append(returned, o.Step(q))
	if o.Steps() != 6 || len(iters) != 6 {
		t.Fatalf("hook saw %d steps, Steps()=%d, want 6", len(iters), o.Steps())
	}
	for i, it := range iters {
		if it != i {
			t.Errorf("hook iter %d = %d, want monotone across Reset", i, it)
		}
	}
	if steps[0] != 0.1 {
		t.Errorf("first hook step = %v, want step0", steps[0])
	}
	for i := range steps {
		if steps[i] != returned[i] {
			t.Errorf("hook step %d = %v, Step returned %v", i, steps[i], returned[i])
		}
	}
}

// BenchmarkStepNilHook vs BenchmarkStepWithHook quantify the telemetry
// hook cost: the nil-hook path must report 0 allocs/op (the acceptance
// bar for disabled telemetry on the inner Nesterov step).
func BenchmarkStepNilHook(b *testing.B) {
	benchStep(b, false)
}

func BenchmarkStepWithHook(b *testing.B) {
	benchStep(b, true)
}

func benchStep(b *testing.B, hook bool) {
	n := 512
	q := &quadratic{k: make([]float64, n), c: make([]float64, n), precondK: true}
	for i := range q.k {
		q.k[i] = 1 + float64(i%7)
		q.c[i] = float64(i % 13)
	}
	o := New(make([]float64, n), 0.05)
	var sink float64
	if hook {
		o.OnStep = func(it int, step float64) { sink += step }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Step(q)
	}
	_ = sink
}

func TestFasterThanPlainGradientDescent(t *testing.T) {
	// Nesterov should beat fixed-step GD on a moderately conditioned
	// quadratic after the same number of iterations.
	n := 30
	mk := func() *quadratic {
		q := &quadratic{k: make([]float64, n), c: make([]float64, n)}
		for i := range q.k {
			q.k[i] = 1 + float64(i%10)*2
			q.c[i] = 1
		}
		return q
	}
	iters := 60
	q := mk()
	o := New(make([]float64, n), 0.05)
	for it := 0; it < iters; it++ {
		o.Step(q)
	}
	nesterovObj := q.value(o.U())

	// Plain GD with the same initial step.
	x := make([]float64, n)
	g := make([]float64, n)
	for it := 0; it < iters; it++ {
		q.Eval(x, g)
		for i := range x {
			x[i] -= 0.05 * g[i]
		}
	}
	gdObj := q.value(x)
	if nesterovObj > gdObj {
		t.Errorf("nesterov %v worse than plain GD %v", nesterovObj, gdObj)
	}
}
