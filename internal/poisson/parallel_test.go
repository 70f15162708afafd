package poisson

import (
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/spectral"
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

// vec1 addresses one contiguous vector.
func vec1(d []float64) spectral.Vectors {
	return spectral.Vectors{Data: d, LaneStride: 1, Stride: 1}
}

// perVector runs the one-vector transforms the solver's lane sweeps
// replaced, as one-lane plan calls on contiguous vectors: every lane of a
// plan call equals the per-vector transform bit for bit whatever the other
// lanes hold (spectral.TestLaneTransformsMatchPerVector).
type perVector struct{ p *spectral.Plan }

func (t perVector) analyze(dst, f []float64) { t.p.AnalyzeCos(vec1(dst), vec1(f), 1) }

func (t perVector) synth(cosOut, sinOut, F []float64) {
	var c, s spectral.Vectors
	if cosOut != nil {
		c = vec1(cosOut)
	}
	if sinOut != nil {
		s = vec1(sinOut)
	}
	t.p.SynthCosSin(c, s, vec1(F), 1)
}

// combinedReference is the per-vector solve that synthesizes ψ, Ex and Ey
// together from three fully scaled coefficient arrays, one row or one
// gathered column at a time — the kernel the lane-swept, field-only Solve
// plus Potential must reproduce bit for bit.
func combinedReference(t *testing.T, nx, ny int, rho []float64) *Grid {
	s := mustSolver(t, nx, ny)
	tx, ty := perVector{s.px}, perVector{s.py}
	n := nx * ny
	tmpA, tmpB, tmpC := make([]float64, n), make([]float64, n), make([]float64, n)
	coef, coefEx, coefEy := make([]float64, n), make([]float64, n), make([]float64, n)
	col, out := make([]float64, ny), make([]float64, ny)
	for iy := 0; iy < ny; iy++ {
		tx.analyze(tmpA[iy*nx:(iy+1)*nx], rho[iy*nx:(iy+1)*nx])
	}
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			col[iy] = tmpA[iy*nx+ix]
		}
		ty.analyze(out, col)
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
		tx.synth(nil, tmpA[r:r+nx], coefEx[r:r+nx])
		tx.synth(tmpB[r:r+nx], nil, coef[r:r+nx])
		tx.synth(tmpC[r:r+nx], nil, coefEy[r:r+nx])
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
				ty.synth(nil, out, col)
			} else {
				ty.synth(out, nil, col)
			}
			for iy := 0; iy < ny; iy++ {
				f.dst[iy*nx+ix] = out[iy]
			}
		}
	}
	return g
}

// TestFieldOnlySolveMatchesCombinedReference: Solve's field and Potential's ψ
// equal the per-vector combined solve's bit for bit, on square and oblong
// grids from 1×1 up (full and partial lane groups along both axes), at
// workers 1, 2 and 16, for smooth densities and for ones holding ±0,
// subnormals, ±Inf and NaN — also when the solver's grid already holds the
// potential of an earlier solve.
func TestFieldOnlySolveMatchesCombinedReference(t *testing.T) {
	sub := math.Float64frombits(1)
	for _, dim := range [][2]int{{32, 32}, {64, 16}, {16, 128}, {1, 1}, {16, 64}, {64, 64}, {2, 8}, {128, 4}} {
		nx, ny := dim[0], dim[1]
		for _, special := range []bool{false, true} {
			rho := make([]float64, nx*ny)
			for i := range rho {
				rho[i] = math.Sin(float64(5*i)) + 0.5*math.Cos(float64(11*i))
				if special {
					switch i % 9 {
					case 1:
						rho[i] = math.Copysign(0, -1)
					case 4:
						rho[i] = sub
					case 7:
						rho[i] = 0
					}
				}
			}
			if special && nx*ny >= 64 {
				rho[nx*ny/3] = math.Inf(1)
				rho[nx*ny/2] = math.NaN()
			}
			ref := combinedReference(t, nx, ny, rho)
			for _, w := range []int{1, 2, 16} {
				s := mustSolver(t, nx, ny)
				s.Workers = w
				g := s.NewGrid()
				spike := make([]float64, nx*ny) // an earlier, different solve
				spike[nx*ny/2] = 1
				s.Solve(spike, g)
				s.Potential(g)
				s.Solve(rho, g)
				s.Potential(g)
				for i := range rho {
					if math.Float64bits(g.Ex[i]) != math.Float64bits(ref.Ex[i]) ||
						math.Float64bits(g.Ey[i]) != math.Float64bits(ref.Ey[i]) ||
						math.Float64bits(g.Psi[i]) != math.Float64bits(ref.Psi[i]) {
						t.Fatalf("%dx%d special=%v workers=%d: bin %d differs from the combined solve",
							nx, ny, special, w, i)
					}
				}
			}
		}
	}
}

// TestSolveAllocatesNothingSerially: at Workers=1 a Solve, and a Solve plus
// Potential, allocate nothing once the plans' lane scratch exists.
func TestSolveAllocatesNothingSerially(t *testing.T) {
	for _, dim := range [][2]int{{64, 64}, {16, 64}} {
		s := mustSolver(t, dim[0], dim[1])
		s.Workers = 1
		g := s.NewGrid()
		rho := make([]float64, dim[0]*dim[1])
		for i := range rho {
			rho[i] = float64(i%13) * 0.1
		}
		if a := testing.AllocsPerRun(20, func() { s.Solve(rho, g) }); a != 0 {
			t.Errorf("%dx%d: Solve allocated %v times per call at Workers=1", dim[0], dim[1], a)
		}
		if a := testing.AllocsPerRun(20, func() { s.Solve(rho, g); s.Potential(g) }); a != 0 {
			t.Errorf("%dx%d: Solve+Potential allocated %v times per call at Workers=1", dim[0], dim[1], a)
		}
	}
}
