// Package poisson solves the Neumann-boundary Poisson equation of ePlace
// (paper Eq. 1) on a regular power-of-two grid using spectral (DCT-based)
// methods:
//
//	∇·∇ψ = −ρ            in R
//	n·∇ψ = 0             on ∂R
//	∬ρ = ∬ψ = 0          (compatibility)
//
// The solver returns both the potential ψ and the field E = −∇ψ, which the
// placer uses as the electrostatic force on cells. The same solver instance
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

	coef   []float64                     // DCT-II coefficients of ρ, then scaled for ψ
	coefEx []float64                     // coefficients scaled for Ex
	coefEy []float64                     // coefficients scaled for Ey
	fil    []float64                     // spectral filter c_u·c_v/(nx·ny·(w_u²+w_v²))
	filEx  []float64                     // fil · w_u (Ex differentiation)
	filEy  []float64                     // fil · w_v (Ey differentiation)
	colBuf [parallel.NumShards][]float64 // per-shard column gather, length max(nx, ny)
	colOut [parallel.NumShards][]float64
	tmpA   []float64 // nx*ny intermediates
	tmpB   []float64
	tmpC   []float64

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
		nx:     nx,
		ny:     ny,
		wx:     make([]float64, nx),
		wy:     make([]float64, ny),
		coef:   make([]float64, nx*ny),
		coefEx: make([]float64, nx*ny),
		coefEy: make([]float64, nx*ny),
		fil:    make([]float64, nx*ny),
		filEx:  make([]float64, nx*ny),
		filEy:  make([]float64, nx*ny),
		tmpA:   make([]float64, nx*ny),
		tmpB:   make([]float64, nx*ny),
		tmpC:   make([]float64, nx*ny),
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

// Solve computes ψ and E = −∇ψ for the charge density rho (length nx*ny,
// row-major) into g. The DC component of rho is removed internally, enforcing
// the compatibility condition; rho itself is not modified.
func (s *Solver) Solve(rho []float64, g *Grid) {
	nx, ny := s.nx, s.ny
	if len(rho) != nx*ny {
		panic("poisson: rho length mismatch")
	}
	if g.NX != nx || g.NY != ny {
		panic("poisson: grid dimension mismatch")
	}

	// Forward 2-D DCT-II of rho: rows (x direction), then columns (y).
	// Each row/column transform owns its output rows — no reduction.
	s.stats.Add(parallel.For(s.Workers, ny, func(shard, lo, hi int) {
		tx := s.trigX[shard]
		for iy := lo; iy < hi; iy++ {
			tx.AnalyzeCos(s.tmpA[iy*nx:(iy+1)*nx], rho[iy*nx:(iy+1)*nx])
		}
	}))
	s.stats.Add(parallel.For(s.Workers, nx, func(shard, lo, hi int) {
		ty := s.trigY[shard]
		col := s.colBuf[shard][:ny]
		out := s.colOut[shard][:ny]
		for ix := lo; ix < hi; ix++ {
			for iy := 0; iy < ny; iy++ {
				col[iy] = s.tmpA[iy*nx+ix]
			}
			ty.AnalyzeCos(out, col)
			for v := 0; v < ny; v++ {
				s.coef[v*nx+ix] = out[v]
			}
		}
	}))

	// Scale coefficients by the precomputed spectral filter tables (DCT
	// normalization, ψ's 1/(w_u²+w_v²) filter, and the E-field
	// differentiation factors, all baked in at construction). The (0,0)
	// entries of the tables are zero, which drops the DC mode
	// (compatibility condition). Disjoint writes per coefficient row.
	s.stats.Add(parallel.For(s.Workers, ny, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			for u := 0; u < nx; u++ {
				i := v*nx + u
				c := s.coef[i]
				s.coef[i] = c * s.fil[i]
				s.coefEx[i] = c * s.filEx[i]
				s.coefEy[i] = c * s.filEy[i]
			}
		}
	}))

	// ψ: cosine synthesis in x then cosine synthesis in y.
	// Ex = −∂ψ/∂x = Σ b·w_u·sin(w_u(x+½))·cos(w_v(y+½)): sine synth in x, cos in y.
	// Ey symmetric.
	s.stats.Add(parallel.For(s.Workers, ny, func(shard, lo, hi int) {
		tx := s.trigX[shard]
		for v := lo; v < hi; v++ {
			tx.SynthCosSin(nil, s.tmpA[v*nx:(v+1)*nx], s.coefEx[v*nx:(v+1)*nx])
			tx.SynthCosSin(s.tmpB[v*nx:(v+1)*nx], nil, s.coef[v*nx:(v+1)*nx])
			tx.SynthCosSin(s.tmpC[v*nx:(v+1)*nx], nil, s.coefEy[v*nx:(v+1)*nx])
		}
	}))
	// Now tmpA rows hold Ex's x-synthesis, tmpB rows ψ's, tmpC rows Ey's.
	// Finish along y: ψ and Ex use cosine synthesis, Ey uses sine synthesis.
	s.stats.Add(parallel.For(s.Workers, nx, func(shard, lo, hi int) {
		ty := s.trigY[shard]
		col := s.colBuf[shard][:ny]
		out := s.colOut[shard][:ny]
		for ix := lo; ix < hi; ix++ {
			for iy := 0; iy < ny; iy++ {
				col[iy] = s.tmpB[iy*nx+ix]
			}
			ty.SynthCosSin(out, nil, col)
			for iy := 0; iy < ny; iy++ {
				g.Psi[iy*nx+ix] = out[iy]
			}

			for iy := 0; iy < ny; iy++ {
				col[iy] = s.tmpA[iy*nx+ix]
			}
			ty.SynthCosSin(out, nil, col)
			for iy := 0; iy < ny; iy++ {
				g.Ex[iy*nx+ix] = out[iy]
			}

			for iy := 0; iy < ny; iy++ {
				col[iy] = s.tmpC[iy*nx+ix]
			}
			ty.SynthCosSin(nil, out, col)
			for iy := 0; iy < ny; iy++ {
				g.Ey[iy*nx+ix] = out[iy]
			}
		}
	}))
}

// Energy returns the total field energy ½·Σ ρ_i·ψ_i over the grid, the
// discrete counterpart of the electrostatic penalty (paper Sec. II-A computes
// it per cell; this grid form is used in tests and diagnostics).
func Energy(rho []float64, g *Grid) float64 {
	var e float64
	for i, r := range rho {
		e += r * g.Psi[i]
	}
	return e / 2
}
