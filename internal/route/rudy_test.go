package route

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// rudyTestDesign builds a hand-computable design on a 4×4 grid of
// 10×10-DBU G-cells: one 2-pin net spanning six G-cells, one near-degenerate
// 2-pin net confined to the corner G-cell, and one single-pin net (inactive,
// must contribute no RUDY). Every pin sits on its own zero-offset cell, so
// pin positions are the cell centers verbatim.
func rudyTestDesign() *netlist.Design {
	pts := []geom.Point{
		{X: 5, Y: 5},   // net 0, cell (0,0)
		{X: 25, Y: 15}, // net 0, cell (2,1)
		{X: 35, Y: 35}, // net 1, cell (3,3)
		{X: 35, Y: 38}, // net 1, cell (3,3)
		{X: 12, Y: 12}, // net 2 (degree 1), cell (1,1)
	}
	d := &netlist.Design{
		Name: "rudy_golden",
		Die:  geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 40, Y: 40}},
	}
	for i, p := range pts {
		d.Cells = append(d.Cells, netlist.Cell{X: p.X, Y: p.Y, W: 1, H: 1, Pins: []int{i}, NumPins: 1})
	}
	nets := [][]int{{0, 1}, {2, 3}, {4}}
	for e, pins := range nets {
		d.Nets = append(d.Nets, netlist.Net{Pins: pins})
		for _, p := range pins {
			for len(d.Pins) <= p {
				d.Pins = append(d.Pins, netlist.Pin{})
			}
			d.Pins[p] = netlist.Pin{Cell: p, Net: e}
		}
	}
	return d
}

// TestRUDYGolden pins the serial RUDY estimator on a 4×4 scenario against
// hand-computed values.
//
// Net 0: bbox (5,5)-(25,15), W=20 H=10 → demand (20+10)/(20·10)·(10·10)=15
// over cells cx∈{0,1,2}, cy∈{0,1}. Net 1: bbox W=0 H=3, clamped to one
// G-cell extent → demand (0+3)/(10·10)·(10·10)=3 on cell (3,3). Net 2 has
// degree 1 and contributes nothing.
func TestRUDYGolden(t *testing.T) {
	d := rudyTestDesign()
	g := &Grid{
		NX:    4,
		NY:    4,
		CellW: 10,
		CellH: 10,
		Die:   d.Die,
	}
	got := RUDY(d, g)
	want := make([]float64, 16)
	for cy := 0; cy <= 1; cy++ {
		for cx := 0; cx <= 2; cx++ {
			want[cy*4+cx] = 15
		}
	}
	want[3*4+3] = 3
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("RUDY[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
