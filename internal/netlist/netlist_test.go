package netlist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// tinyDesign builds a 4-cell, 2-net design used across the tests.
//
//	c0 (10,10) --- n0 --- c1 (30,10)
//	c0, c1, c2 --- n1 --- (c2 at (10,40))
//	m0: fixed macro at (70,70) 20x20
func tinyDesign(t testing.TB) *Design {
	t.Helper()
	b := NewBuilder("tiny", geom.NewRect(0, 0, 100, 100), 10, 1)
	c0 := b.AddCell("c0", StdCell, 10, 10, 2, 10)
	c1 := b.AddCell("c1", StdCell, 30, 10, 4, 10)
	c2 := b.AddCell("c2", StdCell, 10, 40, 2, 10)
	m0 := b.AddCell("m0", Macro, 70, 70, 20, 20)
	n0 := b.AddNet("n0", 1)
	n1 := b.AddNet("n1", 2)
	b.Connect(c0, n0, 0, 0)
	b.Connect(c1, n0, 0, 0)
	b.Connect(c0, n1, 1, 0)
	b.Connect(c1, n1, -1, 0)
	b.Connect(c2, n1, 0, 0)
	b.Connect(m0, n1, -10, -10)
	b.AddRail(geom.Segment{A: geom.Point{X: 0, Y: 20}, B: geom.Point{X: 100, Y: 20}}, 2)
	return b.MustBuild()
}

func TestBuilderWiring(t *testing.T) {
	d := tinyDesign(t)
	if got := len(d.Cells); got != 4 {
		t.Fatalf("cells = %d", got)
	}
	if got := len(d.Nets); got != 2 {
		t.Fatalf("nets = %d", got)
	}
	if got := len(d.Pins); got != 6 {
		t.Fatalf("pins = %d", got)
	}
	if d.Nets[0].Degree() != 2 || d.Nets[1].Degree() != 4 {
		t.Errorf("net degrees wrong: %d, %d", d.Nets[0].Degree(), d.Nets[1].Degree())
	}
	if d.Cells[0].NumPins != 2 {
		t.Errorf("c0 NumPins = %d, want 2", d.Cells[0].NumPins)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPinPosMovesWithCell(t *testing.T) {
	d := tinyDesign(t)
	p := d.PinPos(2) // c0's pin on n1 with offset (1,0)
	if p != (geom.Point{X: 11, Y: 10}) {
		t.Fatalf("PinPos = %v", p)
	}
	d.Cells[0].X += 5
	p = d.PinPos(2)
	if p != (geom.Point{X: 16, Y: 10}) {
		t.Fatalf("PinPos after move = %v", p)
	}
}

func TestNetBBoxAndHPWL(t *testing.T) {
	d := tinyDesign(t)
	bb := d.NetBBox(0)
	if bb.W() != 20 || bb.H() != 0 {
		t.Errorf("n0 bbox = %v", bb)
	}
	// n1 pins: (11,10), (29,10), (10,40), (60,60) → bbox 50x50, weight 2.
	bb1 := d.NetBBox(1)
	if bb1.W() != 50 || bb1.H() != 50 {
		t.Errorf("n1 bbox = %v", bb1)
	}
	want := 1*20.0 + 2*(50+50.0)
	if got := d.HPWL(); math.Abs(got-want) > 1e-9 {
		t.Errorf("HPWL = %v, want %v", got, want)
	}
}

func TestMovableAndKinds(t *testing.T) {
	d := tinyDesign(t)
	if !d.Cells[0].Movable() || d.Cells[3].Movable() {
		t.Errorf("movable flags wrong")
	}
	mv := d.MovableIndices()
	if len(mv) != 3 {
		t.Errorf("MovableIndices = %v", mv)
	}
	if got := len(d.MacroRects()); got != 1 {
		t.Errorf("MacroRects = %d", got)
	}
	if StdCell.String() != "stdcell" || Macro.String() != "macro" || IOPad.String() != "iopad" {
		t.Errorf("CellKind strings wrong")
	}
	if CellKind(200).String() != "unknown" {
		t.Errorf("unknown kind string wrong")
	}
}

func TestComputeStats(t *testing.T) {
	d := tinyDesign(t)
	s := d.ComputeStats()
	if s.NumMovable != 3 || s.NumMacros != 1 || s.NumNets != 2 {
		t.Errorf("stats counts: %+v", s)
	}
	wantMovable := 2*10.0 + 4*10 + 2*10
	if math.Abs(s.MovableArea-wantMovable) > 1e-9 {
		t.Errorf("MovableArea = %v, want %v", s.MovableArea, wantMovable)
	}
	if math.Abs(s.FixedArea-400) > 1e-9 {
		t.Errorf("FixedArea = %v, want 400", s.FixedArea)
	}
	wantUtil := wantMovable / (100*100 - 400)
	if math.Abs(s.Utilization-wantUtil) > 1e-9 {
		t.Errorf("Utilization = %v, want %v", s.Utilization, wantUtil)
	}
	if s.AvgPins != 6.0/4.0 {
		t.Errorf("AvgPins = %v", s.AvgPins)
	}
	if d.AvgPinsPerCell() != s.AvgPins {
		t.Errorf("AvgPinsPerCell mismatch")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	d := tinyDesign(t)
	snap := d.SnapshotPositions()
	d.Cells[0].X = -999
	d.Cells[2].Y = 12345
	d.RestorePositions(snap)
	if d.Cells[0].X != 10 || d.Cells[2].Y != 40 {
		t.Errorf("restore failed: %v %v", d.Cells[0].X, d.Cells[2].Y)
	}
}

func TestRestoreRejectsBadLength(t *testing.T) {
	d := tinyDesign(t)
	defer func() {
		if recover() == nil {
			t.Errorf("RestorePositions with wrong length did not panic")
		}
	}()
	d.RestorePositions(make([]float64, 3))
}

func TestClampToDie(t *testing.T) {
	d := tinyDesign(t)
	d.Cells[0].X = -50
	d.Cells[0].Y = 500
	macroX := d.Cells[3].X
	d.Cells[3].X = -50 // fixed: must NOT be clamped
	d.ClampToDie()
	if d.Cells[0].X != 1 { // W/2 = 1
		t.Errorf("clamped X = %v, want 1", d.Cells[0].X)
	}
	if d.Cells[0].Y != 95 { // die hi 100 - H/2
		t.Errorf("clamped Y = %v, want 95", d.Cells[0].Y)
	}
	if d.Cells[3].X != -50 {
		t.Errorf("macro was clamped; want untouched (was %v)", macroX)
	}
	d.Cells[3].X = macroX
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := tinyDesign(t)
	d.Pins[0].Cell = 99
	if err := d.Validate(); err == nil {
		t.Errorf("bad pin cell index not caught")
	}

	d = tinyDesign(t)
	d.Pins[0].Net = -1
	if err := d.Validate(); err == nil {
		t.Errorf("bad pin net index not caught")
	}

	d = tinyDesign(t)
	d.Cells[0].NumPins = 7
	if err := d.Validate(); err == nil {
		t.Errorf("stale NumPins not caught")
	}

	d = tinyDesign(t)
	d.Cells[0].W = 0
	if err := d.Validate(); err == nil {
		t.Errorf("zero-size cell not caught")
	}

	d = tinyDesign(t)
	d.RowHeight = 0
	if err := d.Validate(); err == nil {
		t.Errorf("zero row height not caught")
	}
}

func TestPGRailRect(t *testing.T) {
	r := PGRail{Seg: geom.Segment{A: geom.Point{X: 0, Y: 20}, B: geom.Point{X: 100, Y: 20}}, Width: 2}
	rect := r.Rect()
	if rect.Lo.Y != 19 || rect.Hi.Y != 21 || rect.Lo.X != -1 || rect.Hi.X != 101 {
		t.Errorf("rail rect = %v", rect)
	}
}

func TestHPWLTranslationInvariance(t *testing.T) {
	// HPWL must be invariant under rigid translation of all cells.
	d := tinyDesign(t)
	base := d.HPWL()
	f := func(dx, dy float64) bool {
		if math.IsNaN(dx) || math.IsInf(dx, 0) || math.IsNaN(dy) || math.IsInf(dy, 0) {
			return true
		}
		dx, dy = math.Mod(dx, 1000), math.Mod(dy, 1000)
		snap := d.SnapshotPositions()
		for i := range d.Cells {
			d.Cells[i].X += dx
			d.Cells[i].Y += dy
		}
		got := d.HPWL()
		d.RestorePositions(snap)
		return math.Abs(got-base) < 1e-6*math.Max(1, math.Abs(base))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConnectPanicsOnBadIndex(t *testing.T) {
	b := NewBuilder("x", geom.NewRect(0, 0, 10, 10), 1, 1)
	b.AddCell("c", StdCell, 5, 5, 1, 1)
	defer func() {
		if recover() == nil {
			t.Errorf("Connect to missing net did not panic")
		}
	}()
	b.Connect(0, 0, 0, 0) // no nets yet
}

// TestLinkPinsMatchesAppend holds LinkPins to the per-pin appends Connect
// made before: on random designs (pinless cells and nets included) every
// list has the same pins in the same order, an empty list is nil, each
// list's capacity equals its length, and NumPins is set.
func TestLinkPinsMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		cells, nets := 1+rng.Intn(40), 1+rng.Intn(40)
		b := NewBuilder("r", geom.NewRect(0, 0, 10, 10), 1, 1)
		for i := 0; i < cells; i++ {
			b.AddCell("c", StdCell, 5, 5, 1, 1)
		}
		for i := 0; i < nets; i++ {
			b.AddNet("n", 1)
		}
		wantCell, wantNet := make([][]int, cells), make([][]int, nets)
		for p, np := 0, rng.Intn(200); p < np; p++ {
			c, n := rng.Intn(cells), rng.Intn(nets)
			if rng.Intn(4) == 0 {
				c %= 1 + cells/4 // crowd some cells, leave others pinless
			}
			if got := b.Connect(c, n, 0, 0); got != p {
				t.Fatalf("Connect returned pin %d, want %d", got, p)
			}
			wantCell[c] = append(wantCell[c], p)
			wantNet[n] = append(wantNet[n], p)
		}
		d := b.MustBuild()
		check := func(kind string, i int, got, want []int) {
			if !reflect.DeepEqual(got, want) || cap(got) != len(got) {
				t.Fatalf("trial %d: %s %d has pins %v (cap %d), want %v", trial, kind, i, got, cap(got), want)
			}
		}
		for i := range d.Cells {
			check("cell", i, d.Cells[i].Pins, wantCell[i])
			if d.Cells[i].NumPins != len(wantCell[i]) {
				t.Fatalf("trial %d: cell %d NumPins %d, want %d", trial, i, d.Cells[i].NumPins, len(wantCell[i]))
			}
		}
		for i := range d.Nets {
			check("net", i, d.Nets[i].Pins, wantNet[i])
		}
	}
}
