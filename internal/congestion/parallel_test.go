package congestion

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/synth"
)

// serialGradients is the congestion gradient assembly as a serial loop over
// nets that subtracts every term from its cell as it goes, with the virtual
// cells appended in net order — the assembly Gradients must reproduce bit
// for bit. Products are rounded explicitly so that no target fuses them
// into the subtractions.
func serialGradients(m *Model, grad []float64) (st Stats, virtX, virtY []float64) {
	twoPin := func(net *netlist.Net) {
		p1 := m.d.PinPos(net.Pins[0])
		p2 := m.d.PinPos(net.Pins[1])
		v, ok := m.VirtualCell(p1, p2)
		if !ok {
			return
		}
		st.VirtualCells++
		virtX = append(virtX, v.X)
		virtY = append(virtY, v.Y)
		ex, ey := m.FieldAt(v.X, v.Y)
		fv := geom.Point{X: m.stdArea * ex, Y: m.stdArea * ey}
		L := p1.Dist(p2)
		if L == 0 {
			return
		}
		n := geom.Point{X: -(p2.Y - p1.Y) / L, Y: (p2.X - p1.X) / L}
		if n.Dot(fv) < 0 {
			n = n.Scale(-1)
		}
		fperp := n.Scale(fv.Dot(n))
		for idx, pi := range []int{net.Pins[0], net.Pins[1]} {
			p := p1
			if idx == 1 {
				p = p2
			}
			ci := m.d.Pins[pi].Cell
			if !m.d.Cells[ci].Movable() {
				continue
			}
			div := p.Dist(v)
			factor := m.MaxLeverage
			if div > 0 {
				factor = math.Min(L/(2*div), m.MaxLeverage)
			}
			grad[2*ci] -= float64(factor * fperp.X)
			grad[2*ci+1] -= float64(factor * fperp.Y)
		}
	}
	for e := range m.d.Nets {
		net := &m.d.Nets[e]
		deg := net.Degree()
		if deg < 2 {
			continue
		}
		if deg == 2 {
			twoPin(net)
		}
		for _, pi := range net.Pins {
			ci := m.d.Pins[pi].Cell
			c := &m.d.Cells[ci]
			if !c.Movable() || float64(c.NumPins) <= m.avgPins {
				continue
			}
			if m.congestionAtPoint(c.X, c.Y) <= m.UtilThreshold {
				continue
			}
			ex, ey := m.FieldAt(c.X, c.Y)
			a := c.Area()
			grad[2*ci] -= float64(a * ex)
			grad[2*ci+1] -= float64(a * ey)
			st.MultiPinHits++
		}
	}
	for ci := range m.d.Cells {
		c := &m.d.Cells[ci]
		if !c.Movable() {
			continue
		}
		if m.congestionAtPoint(c.X, c.Y) > 0 {
			st.CongestedCell++
		}
		st.GradL1 += math.Abs(grad[2*ci]) + math.Abs(grad[2*ci+1])
	}
	return st, virtX, virtY
}

// mixedSetup is the hotspot design plus the cases the gather must order
// correctly: wide movable cells each holding both pins of a two-pin net
// whose chord crosses the hotspot (eight of them, so that the order of the
// two terms shows in the rounding), and fixed cells (a macro and a pad) on
// two-pin nets to movable cells.
func mixedSetup(t testing.TB) (*netlist.Design, *Model) {
	t.Helper()
	const n = 48 // hotspot cells
	b, hub := hotspotBuilder()
	var wide int
	for k := 0; k < 8; k++ {
		off := 10 + 1.5*float64(k)
		wide = b.AddCell("wide", netlist.StdCell, 118+float64(k), 116+2*float64(k), 2*off+4, 8)
		self := b.AddNet("self", 1)
		b.Connect(wide, self, -off, 0.25*float64(k))
		b.Connect(wide, self, off, -0.5*float64(k))
	}
	hubWide := b.AddNet("hubwide", 1)
	b.Connect(hub, hubWide, 0, 0)
	b.Connect(wide, hubWide, 0, 0)
	macro := b.AddCell("m", netlist.Macro, 40, 126, 16, 16)
	pad := b.AddCell("p", netlist.IOPad, 250, 126, 4, 4)
	for _, fixed := range []int{macro, pad} {
		net := b.AddNet("fixed", 1)
		b.Connect(fixed, net, 0, 0)
		b.Connect(n/2, net, 0, 0)
	}
	multi := b.AddNet("multi", 1)
	for _, c := range []int{hub, wide, 3, macro} {
		b.Connect(c, multi, 0, 0)
	}
	b.SetRouteCapScale(0.12)
	d := b.MustBuild()
	g := route.NewGrid(d, 32)
	m := New(d, g)
	m.Update(route.NewRouter(d, g).Route())
	return d, m
}

// TestGradientsMatchSerialReference: the net-parallel assembly equals the
// serial loop bit for bit — gradient, every Stats field and the virtual
// cells — at 1, 2 and 16 workers, accumulating into a gradient that
// already holds values (−0 included), on a synthetic design with macros
// and on one with a cell holding both pins of a two-pin net, and with −0
// and NaN written into the congestion field.
func TestGradientsMatchSerialReference(t *testing.T) {
	hot := synth.MustGenerate("tiny_hot")
	hg := route.NewGrid(hot, 32)
	hm := New(hot, hg)
	hm.Update(route.NewRouter(hot, hg).Route())
	_, mixed := mixedSetup(t)
	// A model whose cells move after New: the pin table must read the
	// current positions, as PinPos does.
	moved := synth.MustGenerate("tiny_hot")
	mm := New(moved, hg)
	mm.Update(route.NewRouter(moved, hg).Route())
	for i := range moved.Cells {
		if c := &moved.Cells[i]; c.Movable() {
			c.X += 3 * math.Sin(float64(i))
			c.Y += 3 * math.Cos(float64(i))
		}
	}
	moved.ClampToDie()

	poison := func(m *Model) {
		for i := range m.field.Ex {
			switch i % 7 {
			case 1:
				m.field.Ex[i] = math.Copysign(0, -1)
			case 3:
				m.field.Ey[i] = math.Copysign(0, -1)
			case 5:
				if i%35 == 5 {
					m.field.Ex[i] = math.NaN()
				}
			}
		}
	}
	for _, tc := range []struct {
		name   string
		m      *Model
		poison bool
	}{
		{"tiny_hot", hm, false},
		{"tiny_hot/moved", mm, false},
		{"mixed", mixed, false},
		{"mixed/poisoned", mixed, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			if tc.poison {
				poison(m)
			}
			// Several start vectors, so that the order of terms that land on
			// one cell shows in the rounding of some of them.
			for r := 0; r < 8; r++ {
				start := make([]float64, 2*len(m.d.Cells))
				for i := range start {
					start[i] = math.Sin(float64(i*(r+1))) * float64(i%5+r)
					if i%5 == r%5 {
						start[i] = math.Copysign(0, -1)
					}
				}
				compareGradients(t, m, start, tc.poison, m == mixed)
			}
		})
	}
}

// compareGradients runs serialGradients and Gradients at 1, 2 and 16
// workers from the same start gradient and compares them bitwise.
func compareGradients(t *testing.T, m *Model, start []float64, poisoned, selfNets bool) {
	t.Helper()
	ref := append([]float64(nil), start...)
	wantSt, wantX, wantY := serialGradients(m, ref)
	if wantSt.VirtualCells == 0 || wantSt.MultiPinHits == 0 {
		t.Fatalf("reference assembled no virtual cell or multi-pin force: %+v", wantSt)
	}
	if poisoned && !math.IsNaN(wantSt.GradL1) {
		t.Fatal("poisoned field left no NaN in the gradient")
	}
	for _, w := range []int{1, 2, 16} {
		m.Workers = w
		got := append([]float64(nil), start...)
		st := m.Gradients(got)
		if st.VirtualCells != wantSt.VirtualCells || st.MultiPinHits != wantSt.MultiPinHits ||
			st.CongestedCell != wantSt.CongestedCell ||
			math.Float64bits(st.GradL1) != math.Float64bits(wantSt.GradL1) {
			t.Errorf("workers=%d: stats %+v, want %+v", w, st, wantSt)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: grad[%d] = %v, want %v", w, i, got[i], ref[i])
			}
		}
		if !bitsEqual(m.virtX, wantX) || !bitsEqual(m.virtY, wantY) {
			t.Errorf("workers=%d: virtual cells differ from the serial order", w)
		}
		both := 0
		for e := range m.d.Nets {
			if m.d.Nets[e].Name == "self" && m.has[e] {
				both++
			}
		}
		if selfNets && both < 4 {
			t.Errorf("workers=%d: %d self nets' cells got both Algorithm 1 terms", w, both)
		}
	}
}

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
