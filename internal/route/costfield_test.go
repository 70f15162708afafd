package route

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/synth"
)

// naiveRunCost sums cellCost over an inclusive horizontal or vertical run
// in O(length), left to right: the reference the prefix-sum field is held
// to.
func naiveRunCost(r *Router, x1, y1, x2, y2 int) float64 {
	var c float64
	if y1 == y2 {
		if x2 < x1 {
			x1, x2 = x2, x1
		}
		for x := x1; x <= x2; x++ {
			c += r.cellCost(y1*r.g.NX + x)
		}
	} else {
		if y2 < y1 {
			y1, y2 = y2, y1
		}
		for y := y1; y <= y2; y++ {
			c += r.cellCost(y*r.g.NX + x1)
		}
	}
	return c
}

// fieldRunCost prices a run from the router's cost field the way the
// pattern pricing does: horizontal when the rows agree, else vertical.
func fieldRunCost(r *Router, x1, y1, x2, y2 int) float64 {
	if y1 == y2 {
		return r.cf.hRun(y1, x1, x2)
	}
	return r.cf.vRun(x1, y1, y2)
}

// randomDemand fills the router's demand and history maps with random
// values.
func randomDemand(r *Router, rng *rand.Rand) {
	for i := range r.dmdH {
		r.dmdH[i] = rng.Float64() * 30
		r.dmdV[i] = rng.Float64() * 30
		r.dmdVia[i] = rng.Float64() * 5
		r.hist[i] = rng.Float64() * 2
	}
}

// TestCostFieldMatchesNaiveRunCost: the prefix-sum run costs must agree with
// the naive cellCost-summing reference on randomized demand grids. The two
// round differently (prefix difference vs left-to-right sum), so the bound
// is a tight relative tolerance, not bitwise equality.
func TestCostFieldMatchesNaiveRunCost(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	r := NewRouter(d, g)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		randomDemand(r, rng)
		r.buildCostField()
		for run := 0; run < 2000; run++ {
			x1, y1 := rng.Intn(g.NX), rng.Intn(g.NY)
			var x2, y2 int
			if rng.Intn(2) == 0 {
				x2, y2 = rng.Intn(g.NX), y1 // horizontal
			} else {
				x2, y2 = x1, rng.Intn(g.NY) // vertical
			}
			naive := naiveRunCost(r, x1, y1, x2, y2)
			fast := fieldRunCost(r, x1, y1, x2, y2)
			if tol := 1e-9 * (1 + math.Abs(naive)); math.Abs(naive-fast) > tol {
				t.Fatalf("trial %d run (%d,%d)-(%d,%d): prefix-sum cost %v, naive %v (diff %v > tol %v)",
					trial, x1, y1, x2, y2, fast, naive, math.Abs(naive-fast), tol)
			}
		}
	}
}

// refField is the two-pass cost field the one-pass build replaced: a
// row-major pass writes cost and the row prefix, then a column-major pass
// accumulates colPS[x*(ny+1)+y] = Σ_{k<y} cost[k*nx+x].
type refField struct {
	nx, ny             int
	cost, rowPS, colPS []float64
}

func buildRefField(r *Router) *refField {
	nx, ny := r.g.NX, r.g.NY
	f := &refField{nx: nx, ny: ny, cost: make([]float64, nx*ny),
		rowPS: make([]float64, ny*(nx+1)), colPS: make([]float64, nx*(ny+1))}
	for y := 0; y < ny; y++ {
		row, base := y*nx, y*(nx+1)
		s := 0.0
		f.rowPS[base] = 0
		for x := 0; x < nx; x++ {
			c := r.cellCost(row + x)
			f.cost[row+x] = c
			s += c
			f.rowPS[base+x+1] = s
		}
	}
	for x := 0; x < nx; x++ {
		base := x * (ny + 1)
		s := 0.0
		f.colPS[base] = 0
		for y := 0; y < ny; y++ {
			s += f.cost[y*nx+x]
			f.colPS[base+y+1] = s
		}
	}
	return f
}

func (f *refField) runCost(x1, y1, x2, y2 int) float64 {
	if y1 == y2 {
		if x2 < x1 {
			x1, x2 = x2, x1
		}
		base := y1 * (f.nx + 1)
		return f.rowPS[base+x2+1] - f.rowPS[base+x1]
	}
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	base := x1 * (f.ny + 1)
	return f.colPS[base+y2+1] - f.colPS[base+y1]
}

// TestCostFieldMatchesTwoPassBitwise holds the one-pass build to the
// two-pass reference: every snapshot cost, every row and column prefix and
// every run cost must be bitwise equal, on random demand with zero-capacity
// G-cells (hard-overflow pricing) and on rebuilds over a reused field.
func TestCostFieldMatchesTwoPassBitwise(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	for l := range g.Cap {
		for y := 3; y < 9; y++ {
			for x := 20; x < 25; x++ {
				g.Cap[l][y*g.NX+x] = 0
			}
		}
	}
	r := NewRouter(d, g)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		randomDemand(r, rng)
		if trial == 3 {
			clear(r.dmdH) // exact zeros: a cost of exactly 1 + history
		}
		r.buildCostField()
		ref := buildRefField(r)
		nx, ny := g.NX, g.NY
		for i := range ref.cost {
			if math.Float64bits(r.cf.cost[i]) != math.Float64bits(ref.cost[i]) {
				t.Fatalf("trial %d: cost[%d] %v, two-pass %v", trial, i, r.cf.cost[i], ref.cost[i])
			}
		}
		for i := range ref.rowPS {
			if math.Float64bits(r.cf.rowPS[i]) != math.Float64bits(ref.rowPS[i]) {
				t.Fatalf("trial %d: rowPS[%d] %v, two-pass %v", trial, i, r.cf.rowPS[i], ref.rowPS[i])
			}
		}
		for x := 0; x < nx; x++ {
			for y := 0; y <= ny; y++ {
				got, want := r.cf.colPS[y*nx+x], ref.colPS[x*(ny+1)+y]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: column prefix (%d,%d) %v, two-pass %v", trial, x, y, got, want)
				}
			}
		}
		for run := 0; run < 4000; run++ {
			x1, y1 := rng.Intn(nx), rng.Intn(ny)
			x2, y2 := rng.Intn(nx), y1
			if rng.Intn(2) == 0 {
				x2, y2 = x1, rng.Intn(ny)
			}
			got, want := fieldRunCost(r, x1, y1, x2, y2), ref.runCost(x1, y1, x2, y2)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d run (%d,%d)-(%d,%d): %v, two-pass %v", trial, x1, y1, x2, y2, got, want)
			}
		}
	}
}

// TestZeroCapacityCellSafe: a G-cell with zero total capacity (fully blocked
// by a macro) must produce finite costs, finite overflow history, and a
// finite result — the historical code divided by capTot unguarded and
// produced ±Inf/NaN.
func TestZeroCapacityCellSafe(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	for l := range g.Cap {
		for y := 10; y < 14; y++ {
			for x := 10; x < 14; x++ {
				g.Cap[l][y*g.NX+x] = 0
			}
		}
	}
	r := NewRouter(d, g)
	free := r.cellCost(0)
	for y := 10; y < 14; y++ {
		for x := 10; x < 14; x++ {
			c := r.cellCost(y*g.NX + x)
			if math.IsInf(c, 0) || math.IsNaN(c) {
				t.Fatalf("cellCost at blocked (%d,%d) is %v", x, y, c)
			}
			if c <= free {
				t.Fatalf("blocked cell costs %v, free cell %v — blocked must be more expensive", c, free)
			}
		}
	}
	r.Rounds = 3 // exercise the overflow-history accumulation too
	res := r.Route()
	for i := range res.Util {
		if math.IsInf(res.Util[i], 0) || math.IsNaN(res.Util[i]) {
			t.Fatalf("Util[%d] = %v", i, res.Util[i])
		}
		if math.IsInf(res.Congestion[i], 0) || math.IsNaN(res.Congestion[i]) {
			t.Fatalf("Congestion[%d] = %v", i, res.Congestion[i])
		}
	}
	for i, h := range r.hist {
		if math.IsInf(h, 0) || math.IsNaN(h) {
			t.Fatalf("hist[%d] = %v", i, h)
		}
	}
	if math.IsInf(res.WirelengthDBU, 0) || math.IsNaN(res.WirelengthDBU) {
		t.Fatalf("WL = %v", res.WirelengthDBU)
	}
}

// TestRouteSteadyStateZeroAlloc: after warm-up, a repeated route call on
// unchanged positions allocates nothing — the decomposition cache, cost
// field, scratch and Result are all reused.
func TestRouteSteadyStateZeroAlloc(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	r := NewRouter(d, g)
	r.Route()
	r.Route()
	if allocs := testing.AllocsPerRun(5, func() { r.Route() }); allocs != 0 {
		t.Fatalf("steady-state Route allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkRoute measures the hot route call: cold constructs a fresh router
// per call (the evaluation oracle's pattern), steady reuses one router on
// unchanged positions (the routability loop's pattern between placements
// drifting less than a G-cell).
func BenchmarkRoute(b *testing.B) {
	for _, tc := range []struct {
		name, design string
		hint         int
	}{
		{"tiny_hot32", "tiny_hot", 32},
		{"fft1_64", "fft_1", 64},
		{"superblue11a_128", "superblue11_a", 128},
	} {
		d := synth.MustGenerate(tc.design)
		g := NewGrid(d, tc.hint)
		b.Run(tc.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewRouter(d, g).Route()
			}
		})
		b.Run(tc.name+"/steady", func(b *testing.B) {
			r := NewRouter(d, g)
			r.Route()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Route()
			}
		})
	}
}

// BenchmarkDecompose measures net decomposition: full rebuilds the whole
// cache (first-call cost), warm re-validates it against unchanged positions
// (the per-iteration steady state).
func BenchmarkDecompose(b *testing.B) {
	d := synth.MustGenerate("fft_1")
	g := NewGrid(d, 64)
	b.Run("full", func(b *testing.B) {
		r := NewRouter(d, g)
		r.updateDecomposition()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Invalidate()
			r.updateDecomposition()
		}
	})
	b.Run("warm", func(b *testing.B) {
		r := NewRouter(d, g)
		r.updateDecomposition()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.updateDecomposition()
		}
	})
}
