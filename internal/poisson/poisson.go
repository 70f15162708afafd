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
// transforms with disjoint outputs, so the solver parallelizes over the
// internal/parallel shard layer with NO reductions at all: outputs are
// bitwise-identical to the serial solver for every worker count.
package poisson

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/spectral"
)

// Solver is a reusable spectral Poisson solver on an NX×NY grid. It
// preallocates all scratch space (one trig-plan clone and one column
// buffer per parallel shard); Solve performs no allocation.
type Solver struct {
	// Workers caps the goroutines used per Solve; 0 selects
	// runtime.GOMAXPROCS(0), 1 runs fully serial. Any setting produces
	// bitwise-identical results.
	Workers int

	nx, ny int
	trigX  [parallel.NumShards]*spectral.Trig // per-shard plans (shared tables)
	trigY  [parallel.NumShards]*spectral.Trig

	wx []float64 // frequencies π·u/nx
	wy []float64 // frequencies π·v/ny

	coef   []float64                     // DCT-II coefficients of ρ from the last Solve
	fil    []float64                     // spectral filter c_u·c_v/(nx·ny·(w_u²+w_v²))
	filEx  []float64                     // fil · w_u (Ex differentiation)
	filEy  []float64                     // fil · w_v (Ey differentiation)
	colBuf [parallel.NumShards][]float64 // per-shard row/column scratch, length max(nx, ny)
	colOut [parallel.NumShards][]float64
	tmpA   []float64 // nx*ny intermediates
	tmpB   []float64
	psiOf  *Grid // grid whose Psi holds the last solve's potential, if any

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
		wx:    make([]float64, nx),
		wy:    make([]float64, ny),
		coef:  make([]float64, nx*ny),
		fil:   make([]float64, nx*ny),
		filEx: make([]float64, nx*ny),
		filEy: make([]float64, nx*ny),
		tmpA:  make([]float64, nx*ny),
		tmpB:  make([]float64, nx*ny),
	}
	tx, err := spectral.NewTrig(nx)
	if err != nil {
		return nil, err
	}
	ty, err := spectral.NewTrig(ny)
	if err != nil {
		return nil, err
	}
	n := nx
	if ny > n {
		n = ny
	}
	for i := 0; i < parallel.NumShards; i++ {
		s.trigX[i] = tx.Clone()
		s.trigY[i] = ty.Clone()
		s.colBuf[i] = make([]float64, n)
		s.colOut[i] = make([]float64, n)
	}
	for u := 0; u < nx; u++ {
		s.wx[u] = math.Pi * float64(u) / float64(nx)
	}
	for v := 0; v < ny; v++ {
		s.wy[v] = math.Pi * float64(v) / float64(ny)
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
			w2 := s.wx[u]*s.wx[u] + s.wy[v]*s.wy[v]
			f := cu * cv / (float64(nx) * float64(ny) * w2)
			s.fil[i] = f
			s.filEx[i] = f * s.wx[u]
			s.filEy[i] = f * s.wy[v]
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
	nx, ny := s.nx, s.ny
	if len(rho) != nx*ny {
		panic("poisson: rho length mismatch")
	}
	s.checkGrid(g)
	s.psiOf = nil

	// Forward 2-D DCT-II of rho: rows (x direction), then columns (y).
	// Each row/column transform owns its output rows — no reduction.
	s.stats.Add(parallel.For(s.Workers, ny, func(shard, lo, hi int) {
		tx := s.trigX[shard]
		for iy := lo; iy < hi; iy++ {
			tx.AnalyzeCos(s.tmpA[iy*nx:(iy+1)*nx], rho[iy*nx:(iy+1)*nx])
		}
	}))
	s.columns(s.tmpA, s.coef, (*spectral.Trig).AnalyzeCos)

	// Scale each coefficient row by the precomputed spectral filter tables
	// (DCT normalization, ψ's 1/(w_u²+w_v²) filter and the E-field
	// differentiation factors, all baked in at construction) and synthesize
	// along x. The (0,0) entries of the tables are zero, which drops the DC
	// mode (compatibility condition).
	// Ex = −∂ψ/∂x = Σ b·w_u·sin(w_u(x+½))·cos(w_v(y+½)): sine synth in x, cos in y.
	// Ey symmetric.
	s.stats.Add(parallel.For(s.Workers, ny, func(shard, lo, hi int) {
		tx := s.trigX[shard]
		rowEx := s.colBuf[shard][:nx]
		rowEy := s.colOut[shard][:nx]
		for v := lo; v < hi; v++ {
			row := v * nx
			for u := 0; u < nx; u++ {
				c := s.coef[row+u]
				rowEx[u] = c * s.filEx[row+u]
				rowEy[u] = c * s.filEy[row+u]
			}
			tx.SynthCosSin(nil, s.tmpA[row:row+nx], rowEx)
			tx.SynthCosSin(s.tmpB[row:row+nx], nil, rowEy)
		}
	}))
	s.columns(s.tmpA, g.Ex, synthCos)
	s.columns(s.tmpB, g.Ey, synthSin)
}

// Potential synthesizes the potential ψ of the last Solve into g.Psi: cosine
// synthesis of the fil-scaled coefficients in x, then in y. Another call for
// the same solve and grid returns at once.
func (s *Solver) Potential(g *Grid) {
	nx, ny := s.nx, s.ny
	s.checkGrid(g)
	if s.psiOf == g {
		return
	}
	s.psiOf = g
	s.stats.Add(parallel.For(s.Workers, ny, func(shard, lo, hi int) {
		tx := s.trigX[shard]
		rowPsi := s.colBuf[shard][:nx]
		for v := lo; v < hi; v++ {
			row := v * nx
			for u := 0; u < nx; u++ {
				rowPsi[u] = s.coef[row+u] * s.fil[row+u]
			}
			tx.SynthCosSin(s.tmpB[row:row+nx], nil, rowPsi)
		}
	}))
	s.columns(s.tmpB, g.Psi, synthCos)
}

func synthCos(t *spectral.Trig, out, in []float64) { t.SynthCosSin(out, nil, in) }
func synthSin(t *spectral.Trig, out, in []float64) { t.SynthCosSin(nil, out, in) }

// columns applies a 1-D transform along y to every column of src, writing
// the results to the same column of dst. Columns own their outputs.
func (s *Solver) columns(src, dst []float64, transform func(t *spectral.Trig, out, in []float64)) {
	nx, ny := s.nx, s.ny
	s.stats.Add(parallel.For(s.Workers, nx, func(shard, lo, hi int) {
		ty := s.trigY[shard]
		col := s.colBuf[shard][:ny]
		out := s.colOut[shard][:ny]
		for ix := lo; ix < hi; ix++ {
			for iy := 0; iy < ny; iy++ {
				col[iy] = src[iy*nx+ix]
			}
			transform(ty, out, col)
			for iy := 0; iy < ny; iy++ {
				dst[iy*nx+ix] = out[iy]
			}
		}
	}))
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
