package poisson

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/spectral"
)

func mustSolver(tb testing.TB, nx, ny int) *Solver {
	tb.Helper()
	s, err := NewSolver(nx, ny)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// laplacian computes the 5-point discrete Laplacian of psi at interior cells,
// in grid-index units, matching the spectral operator to second order.
func laplacian(psi []float64, nx, ny, ix, iy int) float64 {
	i := iy*nx + ix
	return psi[i-1] + psi[i+1] + psi[i-nx] + psi[i+nx] - 4*psi[i]
}

func TestSolvePoissonResidual(t *testing.T) {
	// ∇²ψ must equal −ρ (up to discretization error) for a smooth ρ.
	nx, ny := 64, 64
	s := mustSolver(t, nx, ny)
	rho := make([]float64, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			// Smooth low-frequency density with zero mean by construction of
			// the solver (DC removed internally).
			rho[iy*nx+ix] = math.Cos(2*math.Pi*(float64(ix)+0.5)/float64(nx)) *
				math.Cos(2*math.Pi*(float64(iy)+0.5)/float64(ny))
		}
	}
	g := s.NewGrid()
	s.Solve(rho, g)
	s.Potential(g)

	// Compare at interior points. The analytic solution for this single-mode
	// rho has Laplacian exactly −rho in the continuum; the 5-point stencil
	// approximates it with O(h²) error, so allow a few percent.
	var maxErr, maxRho float64
	for iy := 2; iy < ny-2; iy++ {
		for ix := 2; ix < nx-2; ix++ {
			lap := laplacian(g.Psi, nx, ny, ix, iy)
			want := -rho[iy*nx+ix]
			if e := math.Abs(lap - want); e > maxErr {
				maxErr = e
			}
			if a := math.Abs(want); a > maxRho {
				maxRho = a
			}
		}
	}
	if maxErr > 0.02*maxRho {
		t.Errorf("Laplacian residual too large: %g (scale %g)", maxErr, maxRho)
	}
}

func TestFieldIsNegativeGradient(t *testing.T) {
	// E must equal −∇ψ: compare against central differences of ψ.
	nx, ny := 32, 32
	s := mustSolver(t, nx, ny)
	rng := rand.New(rand.NewSource(7))
	rho := make([]float64, nx*ny)
	// Smooth random density: superpose a few low-frequency modes.
	for k := 0; k < 5; k++ {
		u := 1 + rng.Intn(4)
		v := 1 + rng.Intn(4)
		amp := rng.NormFloat64()
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				rho[iy*nx+ix] += amp *
					math.Cos(math.Pi*float64(u)*(float64(ix)+0.5)/float64(nx)) *
					math.Cos(math.Pi*float64(v)*(float64(iy)+0.5)/float64(ny))
			}
		}
	}
	g := s.NewGrid()
	s.Solve(rho, g)
	s.Potential(g)

	var worst float64
	var scale float64
	for iy := 1; iy < ny-1; iy++ {
		for ix := 1; ix < nx-1; ix++ {
			i := iy*nx + ix
			gradX := (g.Psi[i+1] - g.Psi[i-1]) / 2
			gradY := (g.Psi[i+nx] - g.Psi[i-nx]) / 2
			if e := math.Abs(g.Ex[i] + gradX); e > worst {
				worst = e
			}
			if e := math.Abs(g.Ey[i] + gradY); e > worst {
				worst = e
			}
			if a := math.Abs(g.Ex[i]); a > scale {
				scale = a
			}
		}
	}
	// Central differences carry O(h²) error relative to the spectral field.
	if worst > 0.05*scale {
		t.Errorf("field/gradient mismatch: worst %g, field scale %g", worst, scale)
	}
}

func TestZeroMeanPotential(t *testing.T) {
	nx, ny := 16, 16
	s := mustSolver(t, nx, ny)
	rng := rand.New(rand.NewSource(8))
	rho := make([]float64, nx*ny)
	for i := range rho {
		rho[i] = rng.Float64()
	}
	g := s.NewGrid()
	s.Solve(rho, g)
	s.Potential(g)
	var sum float64
	for _, p := range g.Psi {
		sum += p
	}
	if math.Abs(sum) > 1e-6*float64(nx*ny) {
		t.Errorf("psi mean not zero: %g", sum/float64(nx*ny))
	}
}

func TestUniformDensityGivesZeroField(t *testing.T) {
	nx, ny := 16, 16
	s := mustSolver(t, nx, ny)
	rho := make([]float64, nx*ny)
	for i := range rho {
		rho[i] = 3.7
	}
	g := s.NewGrid()
	s.Solve(rho, g)
	s.Potential(g)
	for i := range g.Psi {
		if math.Abs(g.Psi[i]) > 1e-9 || math.Abs(g.Ex[i]) > 1e-9 || math.Abs(g.Ey[i]) > 1e-9 {
			t.Fatalf("uniform density produced nonzero potential/field at %d", i)
		}
	}
}

func TestFieldPushesAwayFromPeak(t *testing.T) {
	// A single density spike must create a field pointing away from it —
	// this is the repulsive force that spreads cells (and, for the congestion
	// instance, moves nets out of hotspots).
	nx, ny := 32, 32
	s := mustSolver(t, nx, ny)
	rho := make([]float64, nx*ny)
	cx, cy := 16, 16
	rho[cy*nx+cx] = 100
	g := s.NewGrid()
	s.Solve(rho, g)

	probes := []struct{ ix, iy int }{{20, 16}, {12, 16}, {16, 20}, {16, 12}, {20, 20}, {10, 10}}
	for _, p := range probes {
		i := p.iy*nx + p.ix
		dir := [2]float64{float64(p.ix - cx), float64(p.iy - cy)}
		dot := g.Ex[i]*dir[0] + g.Ey[i]*dir[1]
		if dot <= 0 {
			t.Errorf("field at (%d,%d) does not point away from spike: E=(%g,%g)", p.ix, p.iy, g.Ex[i], g.Ey[i])
		}
	}
}

func TestEnergyPositive(t *testing.T) {
	// Field energy ½Σρψ is positive for any non-uniform density.
	nx, ny := 16, 16
	s := mustSolver(t, nx, ny)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		rho := make([]float64, nx*ny)
		for i := range rho {
			rho[i] = rng.Float64() * 2
		}
		g := s.NewGrid()
		s.Solve(rho, g)
		s.Potential(g)
		if e := Energy(rho, g); e <= 0 {
			t.Errorf("trial %d: energy %g not positive", trial, e)
		}
	}
}

func TestEnergyDecreasesWhenSpread(t *testing.T) {
	// Spreading the same total charge over a larger region lowers energy —
	// the optimizer's descent direction is meaningful.
	nx, ny := 32, 32
	s := mustSolver(t, nx, ny)
	concentrated := make([]float64, nx*ny)
	spread := make([]float64, nx*ny)
	concentrated[16*nx+16] = 16
	for dy := 0; dy < 4; dy++ {
		for dx := 0; dx < 4; dx++ {
			spread[(14+dy)*nx+14+dx] = 1
		}
	}
	g := s.NewGrid()
	s.Solve(concentrated, g)
	s.Potential(g)
	e1 := Energy(concentrated, g)
	s.Solve(spread, g)
	s.Potential(g)
	e2 := Energy(spread, g)
	if e2 >= e1 {
		t.Errorf("spread energy %g not below concentrated energy %g", e2, e1)
	}
}

func TestSolverRejectsBadDimensions(t *testing.T) {
	if _, err := NewSolver(12, 16); !errors.Is(err, spectral.ErrNotPow2) {
		t.Errorf("NewSolver(12, 16) error = %v, want spectral.ErrNotPow2", err)
	}
}

func TestSolveRejectsWrongLength(t *testing.T) {
	s := mustSolver(t, 8, 8)
	g := s.NewGrid()
	defer func() {
		if recover() == nil {
			t.Errorf("Solve with short rho did not panic")
		}
	}()
	s.Solve(make([]float64, 7), g)
}

func BenchmarkSolve256(b *testing.B) {
	nx, ny := 256, 256
	s := mustSolver(b, nx, ny)
	rho := make([]float64, nx*ny)
	for i := range rho {
		rho[i] = float64(i%13) * 0.1
	}
	g := s.NewGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(rho, g)
	}
}

// BenchmarkPoissonSolve is the CI bench-smoke entry point for the solver
// (picked up by the Route|Poisson benchmark filter); it exercises the
// placer's common grids: 64 bins (every routability, service and fft
// design), 128 and 256.
func BenchmarkPoissonSolve(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			s := mustSolver(b, n, n)
			rho := make([]float64, n*n)
			for i := range rho {
				rho[i] = float64(i%13) * 0.1
			}
			g := s.NewGrid()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Solve(rho, g)
			}
		})
	}
}
