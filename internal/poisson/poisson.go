// Package poisson solves the Neumann-boundary Poisson equation of ePlace
// (paper Eq. 1) on a regular power-of-two grid using spectral (DCT-based)
// methods:
//
//	∇·∇ψ = −ρ            in R
//	n·∇ψ = 0             on ∂R
//	∬ρ = ∬ψ = 0          (compatibility)
//
// Solve returns the field E = −∇ψ, which the placer uses as the electrostatic
// force on cells; Potential synthesizes ψ itself from the same solve only for
// the callers that read it (penalty values, energies, diagnostics). The same
// solver instance
// serves the cell-density term D(x,y) and the routing-congestion term C(x,y)
// (paper Sec. II-B takes ρ = Dmd/Cap on the G-cell grid).
//
// Every transform stage is a set of independent 1-D row or column
// transforms with disjoint outputs, run spectral.Lanes at a time, so the
// solver parallelizes over the internal/parallel shard layer with NO
// reductions at all: outputs are bitwise-identical to the serial solver for
// every worker count.
package poisson

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/spectral"
)

// Solver is a reusable spectral Poisson solver on an NX×NY grid. It
// transforms Lanes rows or columns at a time through the spectral plans of
// its two lengths, which every solver of the same length shares along with
// their pooled lane scratch. At Workers=1, Solve and Potential allocate
// nothing once the plans' scratch exists; with more workers, each of their
// parallel sections allocates the per-call state of a multi-worker
// parallel.For.
type Solver struct {
	// Workers caps the goroutines used per Solve; 0 selects
	// runtime.GOMAXPROCS(0), 1 runs fully serial. Any setting produces
	// bitwise-identical results.
	Workers int

	nx, ny int
	px, py *spectral.Plan // transforms along x (rows) and y (columns)

	coef  []float64 // DCT-II coefficients of ρ from the last Solve
	fil   []float64 // spectral filter c_u·c_v/(nx·ny·(w_u²+w_v²))
	filEx []float64 // fil · w_u (Ex differentiation)
	filEy []float64 // fil · w_v (Ey differentiation)
	psiOf *Grid     // grid whose Psi holds the last solve's potential, if any

	sw      sweep                   // the sweep sweepFn runs
	sweepFn func(shard, lo, hi int) // s.runSweep, bound once: binding per call allocates

	stats parallel.Timing // accumulated cost of the parallel sections
}

// Grid holds the solver outputs. Index layout is row-major: cell (ix, iy) is
// at iy*NX+ix.
type Grid struct {
	NX, NY int
	Psi    []float64 // electric potential ψ
	Ex     []float64 // field −∂ψ/∂x
	Ey     []float64 // field −∂ψ/∂y
}

// NewSolver creates a solver for an nx×ny grid. Both dimensions must be
// powers of two (the placer rounds its bin counts up accordingly); any other
// size fails with an error matching spectral.ErrNotPow2.
func NewSolver(nx, ny int) (*Solver, error) {
	if !spectral.IsPow2(nx) || !spectral.IsPow2(ny) {
		return nil, fmt.Errorf("poisson: grid %dx%d must have power-of-two dimensions: %w",
			nx, ny, spectral.ErrNotPow2)
	}
	s := &Solver{
		nx:    nx,
		ny:    ny,
		coef:  make([]float64, nx*ny),
		fil:   make([]float64, nx*ny),
		filEx: make([]float64, nx*ny),
		filEy: make([]float64, nx*ny),
	}
	var err error
	if s.px, err = spectral.PlanFor(nx); err != nil {
		return nil, err
	}
	if s.py, err = spectral.PlanFor(ny); err != nil {
		return nil, err
	}
	s.sweepFn = s.runSweep
	wx := make([]float64, nx) // frequencies π·u/nx
	wy := make([]float64, ny) // frequencies π·v/ny
	for u := 0; u < nx; u++ {
		wx[u] = math.Pi * float64(u) / float64(nx)
	}
	for v := 0; v < ny; v++ {
		wy[v] = math.Pi * float64(v) / float64(ny)
	}
	// Precompute the spectral filter tables: the per-mode scale factor
	// c_u·c_v/(nx·ny·(w_u²+w_v²)) and its w_u/w_v-differentiated variants
	// depend only on the grid, so Solve's scale pass reduces to three
	// multiplies per coefficient — no divides in the hot loop. The (0,0)
	// mode stays zero (compatibility condition). Note the precomputed
	// association groups the constants first, which can differ from the
	// historical per-solve expression by an ulp or two.
	for v := 0; v < ny; v++ {
		for u := 0; u < nx; u++ {
			i := v*nx + u
			if u == 0 && v == 0 {
				continue
			}
			cu, cv := 2.0, 2.0
			if u == 0 {
				cu = 1
			}
			if v == 0 {
				cv = 1
			}
			w2 := wx[u]*wx[u] + wy[v]*wy[v]
			f := cu * cv / (float64(nx) * float64(ny) * w2)
			s.fil[i] = f
			s.filEx[i] = f * wx[u]
			s.filEy[i] = f * wy[v]
		}
	}
	return s, nil
}

// NX returns the grid width.
func (s *Solver) NX() int { return s.nx }

// NY returns the grid height.
func (s *Solver) NY() int { return s.ny }

// Stats returns the accumulated wall/busy time of the parallel transform
// sections across all Solve calls since creation (telemetry: the
// parallel.poisson speedup gauge).
func (s *Solver) Stats() parallel.Timing { return s.stats }

// NewGrid allocates an output grid matching the solver dimensions.
func (s *Solver) NewGrid() *Grid {
	return &Grid{
		NX:  s.nx,
		NY:  s.ny,
		Psi: make([]float64, s.nx*s.ny),
		Ex:  make([]float64, s.nx*s.ny),
		Ey:  make([]float64, s.nx*s.ny),
	}
}

// Solve computes the field E = −∇ψ for the charge density rho (length
// nx*ny, row-major) into g.Ex and g.Ey. The DC component of rho is removed
// internally, enforcing the compatibility condition; rho itself is not
// modified. g.Psi is left as it is: Potential synthesizes ψ from this
// solve's coefficients for the callers that read it.
func (s *Solver) Solve(rho []float64, g *Grid) {
	if len(rho) != s.nx*s.ny {
		panic("poisson: rho length mismatch")
	}
	s.checkGrid(g)
	s.psiOf = nil

	// Forward 2-D DCT-II of rho: rows (x direction), then columns (y). The
	// column sweeps transform their grids in place: a lane group is loaded
	// in full before any of it is written.
	s.run(sweep{ops: [2]op{{kind: analyze, src: rho, dst: s.coef}}})
	s.run(sweep{cols: true, ops: [2]op{{kind: analyze, src: s.coef, dst: s.coef}}})

	// Scale the coefficients by the precomputed spectral filter tables (DCT
	// normalization, ψ's 1/(w_u²+w_v²) filter and the E-field
	// differentiation factors, all baked in at construction) as the row
	// synthesis loads them. The (0,0) entries of the tables are zero, which
	// drops the DC mode (compatibility condition).
	// Ex = −∂ψ/∂x = Σ b·w_u·sin(w_u(x+½))·cos(w_v(y+½)): sine synth in x, cos in y.
	// Ey symmetric.
	s.run(sweep{ops: [2]op{
		{kind: synthSin, src: s.coef, scale: s.filEx, dst: g.Ex},
		{kind: synthCos, src: s.coef, scale: s.filEy, dst: g.Ey},
	}})
	s.run(sweep{cols: true, ops: [2]op{
		{kind: synthCos, src: g.Ex, dst: g.Ex},
		{kind: synthSin, src: g.Ey, dst: g.Ey},
	}})
}

// Potential synthesizes the potential ψ of the last Solve into g.Psi: cosine
// synthesis of the fil-scaled coefficients in x, then in y. Another call for
// the same solve and grid returns at once.
func (s *Solver) Potential(g *Grid) {
	s.checkGrid(g)
	if s.psiOf == g {
		return
	}
	s.psiOf = g
	s.run(sweep{ops: [2]op{{kind: synthCos, src: s.coef, scale: s.fil, dst: g.Psi}}})
	s.run(sweep{cols: true, ops: [2]op{{kind: synthCos, src: g.Psi, dst: g.Psi}}})
}

// sweep is one pass of lane transforms over every row (x direction) or
// every column (y direction) of the grid, spectral.Lanes of them at a time,
// applying up to two transforms to each lane group. Rows and columns are
// addressed in place in the row-major grids, so columns need no gather or
// scatter. Each lane group owns its output rows or columns — no reduction.
type sweep struct {
	cols bool
	ops  [2]op
}

// op is one transform of a sweep from src, read as src[i]·scale[i] when
// scale is non-nil, into dst.
type op struct {
	kind            opKind
	src, scale, dst []float64
}

type opKind uint8

const (
	noOp opKind = iota
	analyze
	synthCos
	synthSin
)

// run executes sw over its lane groups.
func (s *Solver) run(sw sweep) {
	s.sw = sw
	count := s.ny
	if sw.cols {
		count = s.nx
	}
	s.stats.Add(parallel.For(s.Workers, (count+spectral.Lanes-1)/spectral.Lanes, s.sweepFn))
	s.sw = sweep{} // keep no reference to the caller's grids
}

// runSweep applies s.sw to lane groups [lo, hi).
func (s *Solver) runSweep(_, lo, hi int) {
	p, count, laneStride, stride := s.px, s.ny, s.nx, 1 // rows
	if s.sw.cols {
		p, count, laneStride, stride = s.py, s.nx, 1, s.nx
	}
	for grp := lo; grp < hi; grp++ {
		first := grp * spectral.Lanes
		lanes := min(spectral.Lanes, count-first)
		off := first * laneStride
		for _, o := range s.sw.ops {
			src := spectral.Vectors{Data: o.src, Scale: o.scale, Off: off, LaneStride: laneStride, Stride: stride}
			dst := spectral.Vectors{Data: o.dst, Off: off, LaneStride: laneStride, Stride: stride}
			switch o.kind {
			case analyze:
				p.AnalyzeCos(dst, src, lanes)
			case synthCos:
				p.SynthCosSin(dst, spectral.Vectors{}, src, lanes)
			case synthSin:
				p.SynthCosSin(spectral.Vectors{}, dst, src, lanes)
			}
		}
	}
}

func (s *Solver) checkGrid(g *Grid) {
	if g.NX != s.nx || g.NY != s.ny {
		panic("poisson: grid dimension mismatch")
	}
}

// Energy returns the total field energy ½·Σ ρ_i·ψ_i over the grid, the
// discrete counterpart of the electrostatic penalty (paper Sec. II-A computes
// it per cell; this grid form is used in tests and diagnostics). g.Psi must
// hold the potential, synthesized by Solver.Potential.
func Energy(rho []float64, g *Grid) float64 {
	var e float64
	for i, r := range rho {
		e += r * g.Psi[i]
	}
	return e / 2
}
