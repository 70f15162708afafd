package density

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/synth"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDensityBitwiseIdenticalAcrossWorkers: splats merge in fixed shard
// order and the reductions use the fixed shard tree, so the charge field,
// penalty, overflow and gradients must be bit-for-bit identical for every
// worker count.
func TestDensityBitwiseIdenticalAcrossWorkers(t *testing.T) {
	type result struct {
		rho, mov     []float64
		grad, fgrad  []float64
		penalty, ovf float64
	}
	run := func(workers int) result {
		d := clusterDesign(t, 64)
		m := New(d, 32)
		m.Workers = workers
		m.Compute()
		grad := make([]float64, 2*len(d.Cells))
		m.AccumCellGrad(grad, 1.5)
		fgrad := make([]float64, len(m.FillerPos))
		m.AccumFillerGrad(fgrad, 1.5)
		return result{
			rho:     append([]float64(nil), m.rho...),
			mov:     append([]float64(nil), m.movArea...),
			grad:    grad,
			fgrad:   fgrad,
			penalty: m.Penalty(),
			ovf:     m.Overflow(),
		}
	}
	ref := run(1)
	for _, w := range []int{2, 3, parallel.NumShards, 0} {
		got := run(w)
		if !bitsEqual(got.rho, ref.rho) {
			t.Errorf("workers=%d: rho differs bitwise from serial", w)
		}
		if !bitsEqual(got.mov, ref.mov) {
			t.Errorf("workers=%d: movArea differs bitwise from serial", w)
		}
		if !bitsEqual(got.grad, ref.grad) {
			t.Errorf("workers=%d: cell gradient differs bitwise from serial", w)
		}
		if !bitsEqual(got.fgrad, ref.fgrad) {
			t.Errorf("workers=%d: filler gradient differs bitwise from serial", w)
		}
		if math.Float64bits(got.penalty) != math.Float64bits(ref.penalty) {
			t.Errorf("workers=%d: penalty %v != serial %v", w, got.penalty, ref.penalty)
		}
		if math.Float64bits(got.ovf) != math.Float64bits(ref.ovf) {
			t.Errorf("workers=%d: overflow %v != serial %v", w, got.ovf, ref.ovf)
		}
	}
}

// referenceRho rasterizes the model's current state with the historical
// flat algorithm — full-grid per-shard buffers merged in ascending shard
// order — and returns the normalized charge grid and movable-area map.
// The tiled Compute must reproduce it bit for bit.
func referenceRho(m *Model) (rho, mov []float64) {
	n := m.NX * m.NY
	var shardRho, shardMov [parallel.NumShards][]float64
	for s := 0; s < parallel.NumShards; s++ {
		shardRho[s], shardMov[s] = make([]float64, n), make([]float64, n)
		lo, hi := parallel.Range(s, len(m.d.Cells))
		for ci := lo; ci < hi; ci++ {
			c := &m.d.Cells[ci]
			if !c.Movable() {
				continue
			}
			r := m.inflation[ci]
			if r <= 0 {
				r = 1
			}
			w := c.W * math.Sqrt(r)
			h := c.H * math.Sqrt(r)
			rect := geom.NewRect(c.X-w/2, c.Y-h/2, c.X+w/2, c.Y+h/2)
			m.splat(shardRho[s], rect, 1, true)
			m.splat(shardMov[s], rect, 1, true)
		}
		lo, hi = parallel.Range(s, m.activeFillers)
		for k := lo; k < hi; k++ {
			x, y := m.FillerPos[2*k], m.FillerPos[2*k+1]
			rect := geom.NewRect(x-m.FillerW/2, y-m.FillerH/2, x+m.FillerW/2, y+m.FillerH/2)
			m.splat(shardRho[s], rect, 1, true)
			m.splat(shardMov[s], rect, 1, true)
		}
	}
	rho = make([]float64, n)
	copy(rho, m.fixedRho)
	mov = make([]float64, n)
	for s := range shardRho {
		for i := range rho {
			rho[i] += shardRho[s][i]
			mov[i] += shardMov[s][i]
		}
	}
	for i := range rho {
		rho[i] += m.pgRho[i]
	}
	binArea := m.binW * m.binH
	for i := range rho {
		rho[i] /= binArea
	}
	return rho, mov
}

// TestComputeMatchesShardMergeReference: the cache-blocked tile
// rasterization, which merges only the bins each segment marked, claims
// bit-identity with the historical full-grid shard-merge — including
// macros (fixed charge), fillers, per-cell inflation and PG density, on
// grids both smaller and larger than one tile, and after cells move
// between Computes. Verify the claim against an in-test reference
// implementation.
func TestComputeMatchesShardMergeReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		grid int
	}{
		{"single-tile", 16}, // whole grid inside one partial tile
		{"exact-tile", 32},  // grid == one full tile
		{"multi-tile", 128}, // 4×4 tiles, charges straddle tile edges
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := synth.MustGenerate("tiny_hot")
			m := New(d, tc.grid)
			infl := make([]float64, len(d.Cells))
			for ci := range infl {
				infl[ci] = 1
				if ci%3 == 0 {
					infl[ci] = 1.7
				}
			}
			if err := m.SetInflations(infl); err != nil {
				t.Fatal(err)
			}
			pg := make([]float64, m.NX*m.NY)
			for i := range pg {
				if i%17 == 0 {
					pg[i] = m.BinW() * m.BinH() * 0.3
				}
			}
			if err := m.SetPGDensity(pg); err != nil {
				t.Fatal(err)
			}
			// Round 1 moves cells and fillers between Computes, so a partial
			// left in the tile scratch by a merge that skipped a written
			// bin would surface in the next Compute.
			for round := 0; round < 2; round++ {
				if round == 1 {
					for ci := range d.Cells {
						if c := &d.Cells[ci]; c.Movable() && ci%2 == 0 {
							c.X += float64(ci%7-3) * 1.3 * m.BinW()
							c.Y -= float64(ci%5-2) * 0.7 * m.BinH()
						}
					}
					for k := 0; k < m.NumFillers(); k += 3 {
						m.FillerPos[2*k] += 2.5 * m.BinW()
					}
					m.ClampFillers()
				}
				for _, w := range []int{1, 4, parallel.NumShards} {
					m.Workers = w
					m.Compute()
					wantRho, wantMov := referenceRho(m)
					if !bitsEqual(m.rho, wantRho) {
						t.Errorf("round %d workers=%d: tiled rho differs bitwise from shard-merge reference", round, w)
					}
					if !bitsEqual(m.movArea, wantMov) {
						t.Errorf("round %d workers=%d: tiled movArea differs bitwise from shard-merge reference", round, w)
					}
				}
			}
		})
	}
}

// TestDensityStatsAccumulate: evaluations record their parallel-section
// cost, and the embedded solver's stats are exposed separately.
func TestDensityStatsAccumulate(t *testing.T) {
	d := clusterDesign(t, 32)
	m := New(d, 32)
	m.Compute()
	m.Penalty()
	m.Overflow()
	if m.Stats().Wall <= 0 || m.Stats().Busy <= 0 {
		t.Errorf("model stats not accumulated: %+v", m.Stats())
	}
	if m.SolverStats().Wall <= 0 {
		t.Errorf("solver stats not accumulated: %+v", m.SolverStats())
	}
}
