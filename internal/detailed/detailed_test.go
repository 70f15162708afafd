package detailed

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// legalDesign produces a legalized tiny design.
func legalDesign(t testing.TB, name string) *netlist.Design {
	t.Helper()
	d := synth.MustGenerate(name)
	if _, _, err := legalize.New(d).RunContext(context.Background()); err != nil {
		t.Fatalf("legalize: %v", err)
	}
	if err := legalize.CheckLegal(d); err != nil {
		t.Fatalf("precondition: %v", err)
	}
	return d
}

// refine runs RefineContext without a deadline.
func refine(t testing.TB, d *netlist.Design, opt Options) Result {
	t.Helper()
	res, err := RefineContext(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRefineImprovesHPWLAndStaysLegal(t *testing.T) {
	d := legalDesign(t, "tiny_hot")
	res := refine(t, d, Options{Passes: 2})
	if res.HPWLAfter > res.HPWLBefore {
		t.Errorf("HPWL got worse: %v → %v", res.HPWLBefore, res.HPWLAfter)
	}
	if res.Shifts+res.Swaps == 0 {
		t.Errorf("refinement made no moves at all")
	}
	if err := legalize.CheckLegal(d); err != nil {
		t.Fatalf("refinement broke legality: %v", err)
	}
}

func TestRefineOnOpenDesign(t *testing.T) {
	d := legalDesign(t, "tiny_open")
	res := refine(t, d, Options{})
	if res.HPWLAfter > res.HPWLBefore {
		t.Errorf("HPWL got worse: %v → %v", res.HPWLBefore, res.HPWLAfter)
	}
	if err := legalize.CheckLegal(d); err != nil {
		t.Fatalf("refinement broke legality: %v", err)
	}
}

func TestRefineDeterministic(t *testing.T) {
	d1 := legalDesign(t, "tiny_hot")
	d2 := legalDesign(t, "tiny_hot")
	refine(t, d1, Options{Passes: 2})
	refine(t, d2, Options{Passes: 2})
	for i := range d1.Cells {
		if d1.Cells[i].X != d2.Cells[i].X || d1.Cells[i].Y != d2.Cells[i].Y {
			t.Fatalf("cell %d differs between runs", i)
		}
	}
}

func TestShiftMovesTowardConnectedCells(t *testing.T) {
	// A free-standing cell with one net to a far-right cell must shift right.
	b := netlist.NewBuilder("s", geom.NewRect(0, 0, 128, 64), 8, 1)
	a := b.AddCell("a", netlist.StdCell, 10, 4, 2, 8) // row 0
	c := b.AddCell("c", netlist.StdCell, 101, 12, 2, 8)
	n := b.AddNet("n", 1)
	b.Connect(a, n, 0, 0)
	b.Connect(c, n, 0, 0)
	d := b.MustBuild()
	if err := legalize.CheckLegal(d); err != nil {
		t.Fatalf("setup illegal: %v", err)
	}
	refine(t, d, Options{Passes: 1})
	if d.Cells[a].X <= 10 {
		t.Errorf("cell a did not move toward its net: x=%v", d.Cells[a].X)
	}
	if err := legalize.CheckLegal(d); err != nil {
		t.Fatalf("shift broke legality: %v", err)
	}
}

func TestSwapUncrossesNets(t *testing.T) {
	// Two adjacent cells whose nets cross: swapping them reduces HPWL.
	b := netlist.NewBuilder("x", geom.NewRect(0, 0, 128, 64), 8, 1)
	a := b.AddCell("a", netlist.StdCell, 61, 4, 2, 8)  // x0=60
	c := b.AddCell("c", netlist.StdCell, 63, 4, 2, 8)  // x0=62, adjacent
	rp := b.AddCell("rp", netlist.IOPad, 120, 4, 1, 1) // right anchor
	lp := b.AddCell("lp", netlist.IOPad, 4, 4, 1, 1)   // left anchor
	n1 := b.AddNet("n1", 1)
	b.Connect(a, n1, 0, 0)
	b.Connect(rp, n1, 0, 0) // a pulled right
	n2 := b.AddNet("n2", 1)
	b.Connect(c, n2, 0, 0)
	b.Connect(lp, n2, 0, 0) // c pulled left
	d := b.MustBuild()
	before := d.HPWL()
	res := refine(t, d, Options{Passes: 1})
	if res.Swaps < 1 {
		t.Errorf("crossing pair was not swapped")
	}
	if d.HPWL() >= before {
		t.Errorf("swap did not reduce HPWL: %v → %v", before, d.HPWL())
	}
	if err := legalize.CheckLegal(d); err != nil {
		t.Fatalf("swap broke legality: %v", err)
	}
}

func TestRefineDoesNotMoveMacrosOrPads(t *testing.T) {
	d := legalDesign(t, "tiny_hot")
	var fixed []int
	for i := range d.Cells {
		if !d.Cells[i].Movable() {
			fixed = append(fixed, i)
		}
	}
	snap := d.SnapshotPositions()
	refine(t, d, Options{Passes: 2})
	for _, i := range fixed {
		if d.Cells[i].X != snap[2*i] || d.Cells[i].Y != snap[2*i+1] {
			t.Fatalf("fixed cell %d moved", i)
		}
	}
}

func BenchmarkRefineTinyHot(b *testing.B) {
	base := synth.MustGenerate("tiny_hot")
	if _, _, err := legalize.New(base).RunContext(context.Background()); err != nil {
		b.Fatal(err)
	}
	snap := base.SnapshotPositions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.RestorePositions(snap)
		refine(b, base, Options{Passes: 2})
	}
}
