package legalize

import (
	"context"
	"errors"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/synth"
)

func TestLegalizeSimpleCluster(t *testing.T) {
	b := netlist.NewBuilder("l", geom.NewRect(0, 0, 64, 64), 8, 1)
	// Three overlapping cells near the center.
	b.AddCell("a", netlist.StdCell, 30, 30, 4, 8)
	b.AddCell("b", netlist.StdCell, 31, 30, 4, 8)
	b.AddCell("c", netlist.StdCell, 32, 31, 4, 8)
	n := b.AddNet("n", 1)
	b.Connect(0, n, 0, 0)
	b.Connect(1, n, 0, 0)
	b.Connect(2, n, 0, 0)
	d := b.MustBuild()
	l := New(d)
	total, maxD, err := l.RunContext(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := CheckLegal(d); err != nil {
		t.Fatalf("not legal: %v", err)
	}
	if total <= 0 || maxD <= 0 {
		t.Errorf("expected nonzero displacement for overlapping cells")
	}
	if maxD > 16 {
		t.Errorf("max displacement %v too large for a 3-cell cluster", maxD)
	}
}

func TestLegalizeRespectsMacros(t *testing.T) {
	b := netlist.NewBuilder("m", geom.NewRect(0, 0, 64, 64), 8, 1)
	b.AddCell("macro", netlist.Macro, 32, 32, 24, 24) // blocks rows 2..5
	// Cells placed on top of the macro.
	for i := 0; i < 6; i++ {
		b.AddCell("c", netlist.StdCell, 30+float64(i), 32, 3, 8)
	}
	n := b.AddNet("n", 1)
	b.Connect(0, n, 0, 0)
	b.Connect(1, n, 0, 0)
	d := b.MustBuild()
	_, _, err := New(d).RunContext(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := CheckLegal(d); err != nil {
		t.Fatalf("not legal: %v", err)
	}
}

func TestLegalizeFullDesign(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	// Spread cells roughly (simulating a finished global placement) so
	// legalization has a fair starting point: tiny_hot's generator already
	// scatters them uniformly.
	_, maxD, err := New(d).RunContext(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := CheckLegal(d); err != nil {
		t.Fatalf("not legal: %v", err)
	}
	if maxD > d.Die.W() {
		t.Errorf("max displacement %v exceeds die width", maxD)
	}
}

func TestLegalizePreservesHPWLReasonably(t *testing.T) {
	d := synth.MustGenerate("tiny_open")
	before := d.HPWL()
	if _, _, err := New(d).RunContext(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	after := d.HPWL()
	if after > 2.5*before+1 {
		t.Errorf("legalization blew up HPWL: %v → %v", before, after)
	}
}

func TestLegalizeErrorsWhenOverfull(t *testing.T) {
	b := netlist.NewBuilder("full", geom.NewRect(0, 0, 16, 8), 8, 1)
	// One row of 16 sites; 20 sites of cells cannot fit.
	for i := 0; i < 5; i++ {
		b.AddCell("c", netlist.StdCell, 8, 4, 4, 8)
	}
	n := b.AddNet("n", 1)
	b.Connect(0, n, 0, 0)
	b.Connect(1, n, 0, 0)
	d := b.MustBuild()
	_, _, err := New(d).RunContext(context.Background())
	var noRoom *NoRoomError
	if !errors.As(err, &noRoom) {
		t.Errorf("over-full die error = %v, want a *NoRoomError", err)
	}
}

func TestCheckLegalCatchesViolations(t *testing.T) {
	mk := func() *netlist.Design {
		b := netlist.NewBuilder("v", geom.NewRect(0, 0, 64, 64), 8, 1)
		b.AddCell("a", netlist.StdCell, 10, 4, 4, 8) // legal: x0=8 y0=0
		b.AddCell("b", netlist.StdCell, 20, 4, 4, 8)
		n := b.AddNet("n", 1)
		b.Connect(0, n, 0, 0)
		b.Connect(1, n, 0, 0)
		return b.MustBuild()
	}
	d := mk()
	if err := CheckLegal(d); err != nil {
		t.Fatalf("legal design flagged: %v", err)
	}
	d = mk()
	d.Cells[0].Y = 5 // off-row
	if err := CheckLegal(d); err == nil {
		t.Errorf("off-row cell not caught")
	}
	d = mk()
	d.Cells[0].X = 10.3 // off-site
	if err := CheckLegal(d); err == nil {
		t.Errorf("off-site cell not caught")
	}
	d = mk()
	d.Cells[1].X = 11 // overlap with a
	if err := CheckLegal(d); err == nil {
		t.Errorf("overlap not caught")
	}
	d = mk()
	d.Cells[0].X = -10 // outside die
	if err := CheckLegal(d); err == nil {
		t.Errorf("outside-die cell not caught")
	}
}

func TestLegalizeDeterministic(t *testing.T) {
	d1 := synth.MustGenerate("tiny_hot")
	d2 := synth.MustGenerate("tiny_hot")
	if _, _, err := New(d1).RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := New(d2).RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range d1.Cells {
		if d1.Cells[i].X != d2.Cells[i].X || d1.Cells[i].Y != d2.Cells[i].Y {
			t.Fatalf("cell %d position differs between runs", i)
		}
	}
}

func TestLegalizeIdempotentCost(t *testing.T) {
	// Legalizing an already-legal design should move cells very little.
	d := synth.MustGenerate("tiny_open")
	if _, _, err := New(d).RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := d.SnapshotPositions()
	total, _, err := New(d).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_ = snap
	if total > 1e-6*float64(len(d.Cells)) {
		// Cells may shuffle by a site due to tie-breaks; allow small drift.
		avg := total / float64(len(d.Cells))
		if avg > 1.0 {
			t.Errorf("re-legalization moved cells by %v on average", avg)
		}
	}
}

func BenchmarkLegalizeTinyHot(b *testing.B) {
	base := synth.MustGenerate("tiny_hot")
	snap := base.SnapshotPositions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.RestorePositions(snap)
		if _, _, err := New(base).RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
