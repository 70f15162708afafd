package core

import (
	"math"
	"testing"

	"repro/internal/congestion"
	"repro/internal/density"
	"repro/internal/route"
	"repro/internal/synth"
	"repro/internal/wirelength"
)

func newTestObjective(t *testing.T, withCong bool) (*objective, *density.Model) {
	t.Helper()
	d := synth.MustGenerate("tiny_hot")
	dens := density.New(d, 32)
	wl := wirelength.New(d, dens.BinW())
	var cong *congestion.Model
	if withCong {
		grid := route.NewGrid(d, 32)
		cong = congestion.New(d, grid)
		cong.Update(route.NewRouter(d, grid).Route())
	}
	return newObjective(d, wl, dens, cong), dens
}

func TestGatherScatterRoundTrip(t *testing.T) {
	obj, _ := newTestObjective(t, false)
	x := make([]float64, obj.dim())
	obj.gather(x)
	orig := append([]float64(nil), x...)
	// Perturb and restore.
	for i := range x {
		x[i] += float64(i%7) - 3
	}
	obj.scatter(x)
	obj.gather(x)
	for i := range x {
		if math.Abs(x[i]-(orig[i]+float64(i%7)-3)) > 1e-12 {
			t.Fatalf("scatter/gather mismatch at %d", i)
		}
	}
	obj.scatter(orig)
}

func TestObjectiveDimCoversCellsAndFillers(t *testing.T) {
	obj, dens := newTestObjective(t, false)
	want := 2 * (len(obj.movable) + dens.NumFillers())
	if obj.dim() != want {
		t.Errorf("dim = %d, want %d", obj.dim(), want)
	}
}

func TestEvalInitializesLambda1(t *testing.T) {
	obj, _ := newTestObjective(t, false)
	if obj.lambda1 != 0 {
		t.Fatalf("lambda1 not zero before first eval")
	}
	x := make([]float64, obj.dim())
	obj.gather(x)
	grad := make([]float64, obj.dim())
	obj.Eval(x, grad)
	if obj.lambda1 <= 0 {
		t.Errorf("lambda1 = %v after first eval, want positive", obj.lambda1)
	}
	if wl := obj.lastWL; math.IsNaN(wl) || wl <= 0 {
		t.Errorf("WA wirelength %v", wl)
	}
	nonzero := false
	for _, g := range grad {
		if g != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Errorf("gradient identically zero")
	}
}

func TestEvalWithCongestionTermChangesGradient(t *testing.T) {
	obj, _ := newTestObjective(t, true)
	x := make([]float64, obj.dim())
	obj.gather(x)
	g1 := make([]float64, obj.dim())
	obj.useCong = false
	obj.Eval(x, g1)
	g2 := make([]float64, obj.dim())
	obj.useCong = true
	obj.Eval(x, g2)
	if obj.lambda2 <= 0 {
		t.Skip("no congestion gradient on this instance")
	}
	same := true
	for i := range g1 {
		if math.Abs(g1[i]-g2[i]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Errorf("congestion term did not change the gradient despite λ2=%v", obj.lambda2)
	}
}

func TestFixedLambda2Override(t *testing.T) {
	obj, _ := newTestObjective(t, true)
	obj.fixedLambda2 = 3.5
	obj.useCong = true
	x := make([]float64, obj.dim())
	obj.gather(x)
	grad := make([]float64, obj.dim())
	obj.Eval(x, grad)
	if obj.lambda2 != 3.5 {
		t.Errorf("lambda2 = %v, want fixed 3.5", obj.lambda2)
	}
}

func TestPreconditionPositiveAndFinite(t *testing.T) {
	obj, _ := newTestObjective(t, false)
	x := make([]float64, obj.dim())
	obj.gather(x)
	grad := make([]float64, obj.dim())
	obj.Eval(x, grad)
	before := append([]float64(nil), grad...)
	obj.Precondition(grad)
	for i := range grad {
		if math.IsNaN(grad[i]) || math.IsInf(grad[i], 0) {
			t.Fatalf("preconditioned gradient not finite at %d", i)
		}
		// Preconditioning divides by a positive scalar: sign preserved.
		if before[i] != 0 && math.Signbit(grad[i]) != math.Signbit(before[i]) {
			t.Fatalf("preconditioning flipped sign at %d", i)
		}
	}
}

func TestClampKeepsInsideDie(t *testing.T) {
	obj, _ := newTestObjective(t, false)
	x := make([]float64, obj.dim())
	for i := range x {
		if i%2 == 0 {
			x[i] = -1e9
		} else {
			x[i] = 1e9
		}
	}
	obj.Clamp(x)
	die := obj.d.Die
	for k := range obj.movable {
		if x[2*k] < die.Lo.X || x[2*k+1] > die.Hi.Y {
			t.Fatalf("cell %d not clamped: (%v, %v)", k, x[2*k], x[2*k+1])
		}
	}
}

func TestSpreadInitialCentersCells(t *testing.T) {
	d := synth.MustGenerate("tiny_open")
	spreadInitial(d)
	cx, cy := d.Die.Center().X, d.Die.Center().Y
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Movable() {
			continue
		}
		if math.Abs(c.X-cx) > 0.2*d.Die.W() || math.Abs(c.Y-cy) > 0.2*d.Die.H() {
			t.Fatalf("cell %d not near center: (%v, %v)", i, c.X, c.Y)
		}
	}
}

func TestUnknownInflationSchemeErrors(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	opt := fastOpts(ModeOurs)
	opt.Tech.InflationScheme = "quantum"
	if _, err := Place(d, opt); err == nil {
		t.Errorf("unknown inflation scheme accepted")
	}
}

func TestPresentOnlySchemeRuns(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	opt := fastOpts(ModeOurs)
	opt.Tech.InflationScheme = "present"
	res, err := Place(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteIters == 0 {
		t.Errorf("present-only run did no routability iterations")
	}
}
