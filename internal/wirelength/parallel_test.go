package wirelength

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/parallel"
)

// meshDesign builds a design with many nets of mixed degree so the shard
// decomposition is exercised with uneven per-net work.
func meshDesign(t testing.TB) *netlist.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	b := netlist.NewBuilder("mesh", geom.NewRect(0, 0, 1000, 1000), 8, 1)
	const cells = 400
	for i := 0; i < cells; i++ {
		b.AddCell("c", netlist.StdCell, rng.Float64()*1000, rng.Float64()*1000, 2, 8)
	}
	for e := 0; e < 700; e++ {
		n := b.AddNet("n", 1)
		deg := 2 + rng.Intn(7)
		for k := 0; k < deg; k++ {
			b.Connect(rng.Intn(cells), n, 0, 0)
		}
	}
	return b.MustBuild()
}

// TestEvaluateBitwiseIdenticalAcrossWorkers: the shard reduction tree
// depends only on the net count, so WA total and gradient must be
// bit-for-bit identical for every worker count.
func TestEvaluateBitwiseIdenticalAcrossWorkers(t *testing.T) {
	d := meshDesign(t)
	run := func(workers int) (float64, []float64) {
		m := New(d, 4.0)
		m.Workers = workers
		grad := make([]float64, 2*len(d.Cells))
		wa := m.EvaluateWithGrad(grad)
		return wa, grad
	}
	refWA, refGrad := run(1)
	for _, w := range []int{2, 3, parallel.NumShards, 0} {
		wa, grad := run(w)
		if math.Float64bits(wa) != math.Float64bits(refWA) {
			t.Errorf("workers=%d: WA %v != serial %v (bitwise)", w, wa, refWA)
		}
		for i := range grad {
			if math.Float64bits(grad[i]) != math.Float64bits(refGrad[i]) {
				t.Fatalf("workers=%d: grad[%d] differs bitwise from serial", w, i)
			}
		}
	}
}

// TestEvaluateStatsAccumulate: evaluations record the cost of the parallel
// section for the telemetry speedup gauges.
func TestEvaluateStatsAccumulate(t *testing.T) {
	d := meshDesign(t)
	m := New(d, 4.0)
	m.Evaluate()
	m.Evaluate()
	if m.Stats().Wall <= 0 || m.Stats().Busy <= 0 {
		t.Errorf("stats not accumulated: %+v", m.Stats())
	}
}

// scatterReference is the WA evaluation as a scatter into NumShards zeroed
// per-shard gradient buffers merged in ascending shard order, each net
// reading its pins once per axis and recomputing the min-side exponential
// in the gradient loop — the kernel the per-pin gather must reproduce bit
// for bit.
func scatterReference(d *netlist.Design, gamma float64, grad []float64) float64 {
	var shardGrad [parallel.NumShards][]float64
	var parts [parallel.NumShards]float64
	for s := 0; s < parallel.NumShards; s++ {
		lo, hi := parallel.Range(s, len(d.Nets))
		sg := make([]float64, 2*len(d.Cells))
		shardGrad[s] = sg
		var total float64
		for e := lo; e < hi; e++ {
			net := &d.Nets[e]
			if net.Degree() < 2 {
				continue
			}
			w := net.Weight
			if w == 0 {
				w = 1
			}
			for axis := 0; axis < 2; axis++ {
				coords := make([]float64, len(net.Pins))
				for k, pi := range net.Pins {
					if p := d.PinPos(pi); axis == 0 {
						coords[k] = p.X
					} else {
						coords[k] = p.Y
					}
				}
				lo, hi := coords[0], coords[0]
				for _, c := range coords[1:] {
					if c < lo {
						lo = c
					}
					if c > hi {
						hi = c
					}
				}
				expP := make([]float64, len(coords))
				var sP, sxP, sN, sxN float64
				for k, c := range coords {
					ep := math.Exp((c - hi) / gamma)
					en := math.Exp((lo - c) / gamma)
					expP[k] = ep
					sP += ep
					sxP += c * ep
					sN += en
					sxN += c * en
				}
				total += w * (sxP/sP - sxN/sN)
				for k, pi := range net.Pins {
					c := coords[k]
					en := math.Exp((lo - c) / gamma)
					dMax := expP[k] * ((1+c/gamma)*sP - sxP/gamma) / (sP * sP)
					dMin := en * ((1-c/gamma)*sN + sxN/gamma) / (sN * sN)
					sg[2*d.Pins[pi].Cell+axis] += w * (dMax - dMin)
				}
			}
		}
		parts[s] = total
	}
	for _, sg := range shardGrad {
		for i, v := range sg {
			grad[i] += v
		}
	}
	return parallel.SumShards(&parts)
}

// TestGatherMatchesScatterReference: the per-pin slots and per-cell gather
// give the scatter-and-merge reference's WA total and gradient bit for bit,
// at several worker counts, on a fresh gradient and on one that already
// holds values — −0 on pinless cells included.
func TestGatherMatchesScatterReference(t *testing.T) {
	d := meshDesign(t)
	// Pinless cells, a single-pin net, pins of one cell twice on a net and
	// net weights exercise every branch of the gather.
	b := netlist.NewBuilder("mesh+", d.Die, 8, 1)
	for i := range d.Cells {
		c := &d.Cells[i]
		b.AddCell("c", netlist.StdCell, c.X, c.Y, c.W, c.H)
	}
	for i := 0; i < 5; i++ {
		b.AddCell("lonely", netlist.StdCell, 10*float64(i), 500, 2, 8)
	}
	for e := range d.Nets {
		n := b.AddNet("n", float64(1+e%3))
		for _, pi := range d.Nets[e].Pins {
			p := &d.Pins[pi]
			b.Connect(p.Cell, n, float64(e%5)-2, float64(e%7)-3)
		}
	}
	b.Connect(7, b.AddNet("single", 1), 0, 0)
	dup := b.AddNet("dup", 1)
	b.Connect(3, dup, -1, 0)
	b.Connect(9, dup, 0, 0)
	b.Connect(3, dup, 1, 0)
	d = b.MustBuild()

	for _, init := range []string{"zero", "signed"} {
		fill := func(g []float64) {
			for i := range g {
				switch {
				case init == "zero":
					g[i] = 0
				case i%3 == 0:
					g[i] = math.Copysign(0, -1)
				default:
					g[i] = float64(i%11) - 5.5
				}
			}
		}
		ref := make([]float64, 2*len(d.Cells))
		fill(ref)
		refWA := scatterReference(d, 4.0, ref)
		for _, w := range []int{1, 2, 16} {
			m := New(d, 4.0)
			m.Workers = w
			grad := make([]float64, 2*len(d.Cells))
			fill(grad)
			wa := m.EvaluateWithGrad(grad)
			if math.Float64bits(wa) != math.Float64bits(refWA) {
				t.Errorf("%s, workers=%d: WA %v != reference %v (bitwise)", init, w, wa, refWA)
			}
			for i := range grad {
				if math.Float64bits(grad[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%s, workers=%d: grad[%d] = %v, reference %v (bitwise)", init, w, i, grad[i], ref[i])
				}
			}
		}
	}
}

// TestNetPassReadsMovedCells: the net pass takes pin positions from its
// slot-ordered pin table and the design's current cell positions, so a
// model built once gives the d.PinPos reference's WA total and gradient bit
// for bit after cells move between two calls — pins with nonzero offsets,
// a cell with several pins on one net and ±0 coordinates included.
func TestNetPassReadsMovedCells(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	b := netlist.NewBuilder("moves", geom.NewRect(0, 0, 1000, 1000), 8, 1)
	const cells = 120
	for i := 0; i < cells; i++ {
		b.AddCell("c", netlist.StdCell, rng.Float64()*1000, rng.Float64()*1000, 2, 8)
	}
	for e := 0; e < 200; e++ {
		n := b.AddNet("n", float64(1+e%2))
		for k := 0; k < 2+rng.Intn(5); k++ {
			b.Connect(rng.Intn(cells), n, float64(rng.Intn(5))-2, float64(rng.Intn(3))-1)
		}
	}
	dup := b.AddNet("dup", 1)
	b.Connect(5, dup, -1, 0)
	b.Connect(6, dup, 0, 0)
	b.Connect(5, dup, 1, 0)
	d := b.MustBuild()

	start := d.SnapshotPositions()
	for _, w := range []int{1, 2, 16} {
		d.RestorePositions(start)
		m := New(d, 4.0)
		m.Workers = w
		for call := 0; call < 3; call++ {
			if call > 0 {
				for i := range d.Cells {
					if i%4 == call || i == 5 {
						d.Cells[i].X += rng.NormFloat64() * 30
						d.Cells[i].Y -= rng.NormFloat64() * 30
					}
				}
				d.Cells[6].X, d.Cells[6].Y = math.Copysign(0, -1), 0
			}
			ref := make([]float64, 2*len(d.Cells))
			refWA := scatterReference(d, 4.0, ref)
			grad := make([]float64, 2*len(d.Cells))
			wa := m.EvaluateWithGrad(grad)
			if math.Float64bits(wa) != math.Float64bits(refWA) {
				t.Fatalf("workers=%d call %d: WA %v != d.PinPos reference %v (bitwise)", w, call, wa, refWA)
			}
			for i := range grad {
				if math.Float64bits(grad[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("workers=%d call %d: grad[%d] = %v, reference %v (bitwise)", w, call, i, grad[i], ref[i])
				}
			}
		}
	}
}
