package core

import (
	"math"

	"repro/internal/congestion"
	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/guard/inject"
	"repro/internal/netlist"
	"repro/internal/telemetry"
	"repro/internal/wirelength"
)

// objective adapts the placement model (Eq. 5):
//
//	min  Σ WA_e(x,y) + λ₁·D(x,y) + λ₂·C(x,y)
//
// to the nesterov.Objective interface. The optimization variables are the
// centers of all movable cells followed by all filler positions.
type objective struct {
	d    *netlist.Design
	wl   *wirelength.Model
	dens *density.Model
	cong *congestion.Model // nil when the DC technique is off

	movable []int // movable cell indices, fixed order
	nCells  int   // len(movable)
	nFill   int

	lambda1      float64
	lambda2      float64
	fixedLambda2 float64 // >0 → ablation A2
	useCong      bool    // congestion term active this phase

	// Scratch buffers.
	gWL   []float64 // per netlist cell, 2N
	gDens []float64 // per netlist cell, 2N
	gCong []float64 // per netlist cell, 2N
	gFill []float64 // per filler, 2F

	// Stats from the last Eval.
	lastWL       float64
	lastOverflow float64
	lastStats    congestion.Stats
	lastWLGradL1 float64

	// poissonSolves counts the spectral density solves (telemetry); a nil
	// counter is a no-op, keeping the disabled path allocation-free.
	poissonSolves *telemetry.Counter

	// evals counts Eval calls; it indexes the WA-gradient fault injection.
	// There is exactly one Eval per nesterov.Step, so a checkpoint restore
	// sets it from the serialized step count and injection indices stay
	// comparable across resumed and uninterrupted runs. Retried (rolled-back)
	// steps still advance it: indices count actual evaluations.
	evals  int
	inject *inject.Registry // nil in production
}

func newObjective(d *netlist.Design, wl *wirelength.Model, dens *density.Model, cong *congestion.Model) *objective {
	mov := d.MovableIndices()
	n2 := 2 * len(d.Cells)
	return &objective{
		d:       d,
		wl:      wl,
		dens:    dens,
		cong:    cong,
		movable: mov,
		nCells:  len(mov),
		nFill:   dens.NumFillers(),
		gWL:     make([]float64, n2),
		gDens:   make([]float64, n2),
		gCong:   make([]float64, n2),
		gFill:   make([]float64, 2*dens.NumFillers()),
	}
}

// dim returns the optimization dimension.
func (o *objective) dim() int { return 2 * (o.nCells + o.nFill) }

// gather copies the current design/filler positions into x.
func (o *objective) gather(x []float64) {
	for k, ci := range o.movable {
		x[2*k] = o.d.Cells[ci].X
		x[2*k+1] = o.d.Cells[ci].Y
	}
	copy(x[2*o.nCells:], o.dens.FillerPos)
}

// scatter writes x into the design and filler positions.
func (o *objective) scatter(x []float64) {
	for k, ci := range o.movable {
		o.d.Cells[ci].X = x[2*k]
		o.d.Cells[ci].Y = x[2*k+1]
	}
	copy(o.dens.FillerPos, x[2*o.nCells:])
}

// Eval implements nesterov.Objective. It computes the gradient only: the
// penalty values D and C, which no caller reads, are not evaluated.
func (o *objective) Eval(x, grad []float64) {
	evalIdx := o.evals
	o.evals++
	o.scatter(x)

	zero(o.gWL)
	o.lastWL = o.wl.EvaluateWithGrad(o.gWL)
	if o.inject.ShouldFire(inject.WAGradNaN, evalIdx) {
		// Poison one movable cell's WA gradient entry (a fixed cell's entry
		// would never reach the combined gradient).
		ci := o.movable[o.inject.Index(inject.WAGradNaN, len(o.movable))]
		o.gWL[2*ci] = math.NaN()
	}
	o.lastWLGradL1 = wirelength.GradL1(o.d, o.gWL)

	o.dens.Compute()
	o.poissonSolves.Inc() // one spectral solve per density computation
	o.lastOverflow = o.dens.Overflow()
	zero(o.gDens)
	o.dens.AccumCellGrad(o.gDens, 1)
	zero(o.gFill)
	o.dens.AccumFillerGrad(o.gFill, 1)

	if o.lambda1 == 0 {
		// First evaluation: λ₁ = ‖∇W‖₁ / ‖∇D‖₁ (ePlace initialization).
		densL1 := wirelength.GradL1(o.d, o.gDens)
		if densL1 > 0 {
			o.lambda1 = o.lastWLGradL1 / densL1
		} else {
			o.lambda1 = 1
		}
	}

	if o.useCong && o.cong != nil && o.cong.Ready() {
		zero(o.gCong)
		o.lastStats = o.cong.Gradients(o.gCong)
		if o.fixedLambda2 > 0 {
			o.lambda2 = o.fixedLambda2
		} else {
			o.lambda2 = o.cong.Lambda2(o.lastWLGradL1, o.lastStats) // Eq. 10
		}
	} else {
		o.lambda2 = 0
	}

	// Combine into the flat gradient.
	for k, ci := range o.movable {
		gx := o.gWL[2*ci] + o.lambda1*o.gDens[2*ci]
		gy := o.gWL[2*ci+1] + o.lambda1*o.gDens[2*ci+1]
		if o.lambda2 > 0 {
			gx += o.lambda2 * o.gCong[2*ci]
			gy += o.lambda2 * o.gCong[2*ci+1]
		}
		grad[2*k] = gx
		grad[2*k+1] = gy
	}
	base := 2 * o.nCells
	for k := 0; k < 2*o.nFill; k++ {
		grad[base+k] = o.lambda1 * o.gFill[k]
	}
}

// Precondition implements nesterov.Objective with the ePlace preconditioner:
// each cell's gradient is divided by (pin count + λ₁·area).
func (o *objective) Precondition(grad []float64) {
	for k, ci := range o.movable {
		c := &o.d.Cells[ci]
		p := float64(c.NumPins) + o.lambda1*c.Area()
		if p < 1 {
			p = 1
		}
		grad[2*k] /= p
		grad[2*k+1] /= p
	}
	base := 2 * o.nCells
	fp := o.lambda1 * o.dens.FillerW * o.dens.FillerH
	if fp < 1 {
		fp = 1
	}
	for k := 0; k < 2*o.nFill; k++ {
		grad[base+k] /= fp
	}
}

// Clamp implements nesterov.Objective: keep every object inside the die.
func (o *objective) Clamp(x []float64) {
	die := o.d.Die
	for k, ci := range o.movable {
		c := &o.d.Cells[ci]
		x[2*k] = geom.Clamp(x[2*k], die.Lo.X+c.W/2, die.Hi.X-c.W/2)
		x[2*k+1] = geom.Clamp(x[2*k+1], die.Lo.Y+c.H/2, die.Hi.Y-c.H/2)
	}
	base := 2 * o.nCells
	hw, hh := o.dens.FillerW/2, o.dens.FillerH/2
	for k := 0; k < o.nFill; k++ {
		x[base+2*k] = geom.Clamp(x[base+2*k], die.Lo.X+hw, die.Hi.X-hw)
		x[base+2*k+1] = geom.Clamp(x[base+2*k+1], die.Lo.Y+hh, die.Hi.Y-hh)
	}
}

func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// spreadInitial places all movable cells (and fillers are already sprinkled)
// near the die center with a deterministic low-discrepancy jitter, the
// standard electrostatic-placement initialization.
func spreadInitial(d *netlist.Design) {
	die := d.Die
	cx, cy := die.Center().X, die.Center().Y
	spanX, spanY := die.W()*0.15, die.H()*0.15
	k := 0
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() {
			continue
		}
		k++
		c.X = cx + (halton(k, 2)-0.5)*spanX
		c.Y = cy + (halton(k, 3)-0.5)*spanY
	}
	d.ClampToDie()
}

func halton(i, base int) float64 {
	f, r := 1.0, 0.0
	for i > 0 {
		f /= float64(base)
		r += f * float64(i%base)
		i /= base
	}
	return r
}

// cellCongestion fills congAt[i] with the Eq. 3 congestion of the G-cell
// containing each netlist cell's center (the C_i^t of Eq. 11).
func cellCongestion(d *netlist.Design, congFn func(x, y float64) float64, congAt []float64) {
	for ci := range d.Cells {
		congAt[ci] = congFn(d.Cells[ci].X, d.Cells[ci].Y)
	}
}
