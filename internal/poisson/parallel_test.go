package poisson

import (
	"math"
	"testing"

	"repro/internal/parallel"
)

// TestSolveBitwiseIdenticalAcrossWorkers: the solver has no reductions, so
// every worker count must produce bit-for-bit identical E and ψ fields.
func TestSolveBitwiseIdenticalAcrossWorkers(t *testing.T) {
	const nx, ny = 32, 32
	rho := make([]float64, nx*ny)
	for i := range rho {
		rho[i] = math.Sin(float64(3*i)) + 0.25*math.Cos(float64(7*i))
	}
	solve := func(workers int) *Grid {
		s := mustSolver(t, nx, ny)
		s.Workers = workers
		g := s.NewGrid()
		s.Solve(rho, g)
		s.Potential(g)
		return g
	}
	ref := solve(1)
	for _, w := range []int{2, 3, parallel.NumShards, 0} {
		g := solve(w)
		for i := range ref.Psi {
			if math.Float64bits(g.Psi[i]) != math.Float64bits(ref.Psi[i]) ||
				math.Float64bits(g.Ex[i]) != math.Float64bits(ref.Ex[i]) ||
				math.Float64bits(g.Ey[i]) != math.Float64bits(ref.Ey[i]) {
				t.Fatalf("workers=%d: field bit %d differs from serial", w, i)
			}
		}
	}
}

// TestSolveStatsAccumulate: Solve records the cost of its parallel
// sections for the telemetry speedup gauges.
func TestSolveStatsAccumulate(t *testing.T) {
	s := mustSolver(t, 16, 16)
	g := s.NewGrid()
	rho := make([]float64, 16*16)
	rho[5] = 1
	s.Solve(rho, g)
	if s.Stats().Wall <= 0 || s.Stats().Busy <= 0 {
		t.Errorf("stats not accumulated: %+v", s.Stats())
	}
}

// combinedReference is the solve that synthesizes ψ, Ex and Ey together from
// three fully scaled coefficient arrays — the kernel the field-only Solve
// plus Potential must reproduce bit for bit.
func combinedReference(t *testing.T, nx, ny int, rho []float64) *Grid {
	s := mustSolver(t, nx, ny)
	tx, ty := s.trigX[0], s.trigY[0]
	n := nx * ny
	tmpA, tmpB, tmpC := make([]float64, n), make([]float64, n), make([]float64, n)
	coef, coefEx, coefEy := make([]float64, n), make([]float64, n), make([]float64, n)
	col, out := make([]float64, ny), make([]float64, ny)
	for iy := 0; iy < ny; iy++ {
		tx.AnalyzeCos(tmpA[iy*nx:(iy+1)*nx], rho[iy*nx:(iy+1)*nx])
	}
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			col[iy] = tmpA[iy*nx+ix]
		}
		ty.AnalyzeCos(out, col)
		for v := 0; v < ny; v++ {
			coef[v*nx+ix] = out[v]
		}
	}
	for i, c := range coef {
		coef[i] = c * s.fil[i]
		coefEx[i] = c * s.filEx[i]
		coefEy[i] = c * s.filEy[i]
	}
	for v := 0; v < ny; v++ {
		r := v * nx
		tx.SynthCosSin(nil, tmpA[r:r+nx], coefEx[r:r+nx])
		tx.SynthCosSin(tmpB[r:r+nx], nil, coef[r:r+nx])
		tx.SynthCosSin(tmpC[r:r+nx], nil, coefEy[r:r+nx])
	}
	g := s.NewGrid()
	for ix := 0; ix < nx; ix++ {
		for _, f := range []struct {
			src, dst []float64
			sin      bool
		}{{tmpB, g.Psi, false}, {tmpA, g.Ex, false}, {tmpC, g.Ey, true}} {
			for iy := 0; iy < ny; iy++ {
				col[iy] = f.src[iy*nx+ix]
			}
			if f.sin {
				ty.SynthCosSin(nil, out, col)
			} else {
				ty.SynthCosSin(out, nil, col)
			}
			for iy := 0; iy < ny; iy++ {
				f.dst[iy*nx+ix] = out[iy]
			}
		}
	}
	return g
}

// TestFieldOnlySolveMatchesCombinedReference: Solve's field and Potential's ψ
// equal the combined solve's bit for bit, on square and oblong grids — also
// when the solver's grid already holds the potential of an earlier solve.
func TestFieldOnlySolveMatchesCombinedReference(t *testing.T) {
	for _, dim := range [][2]int{{32, 32}, {64, 16}, {16, 128}} {
		nx, ny := dim[0], dim[1]
		rho := make([]float64, nx*ny)
		for i := range rho {
			rho[i] = math.Sin(float64(5*i)) + 0.5*math.Cos(float64(11*i))
		}
		ref := combinedReference(t, nx, ny, rho)
		for _, w := range []int{1, 2} {
			s := mustSolver(t, nx, ny)
			s.Workers = w
			g := s.NewGrid()
			spike := make([]float64, nx*ny) // an earlier, different solve
			spike[3] = 1
			s.Solve(spike, g)
			s.Potential(g)
			s.Solve(rho, g)
			s.Potential(g)
			for i := range rho {
				if math.Float64bits(g.Ex[i]) != math.Float64bits(ref.Ex[i]) ||
					math.Float64bits(g.Ey[i]) != math.Float64bits(ref.Ey[i]) ||
					math.Float64bits(g.Psi[i]) != math.Float64bits(ref.Psi[i]) {
					t.Fatalf("%dx%d workers=%d: bin %d differs from the combined solve", nx, ny, w, i)
				}
			}
		}
	}
}
