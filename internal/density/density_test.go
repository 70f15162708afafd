package density

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// clusterDesign puts n cells in a tight cluster at the die center.
func clusterDesign(t testing.TB, n int) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("cluster", geom.NewRect(0, 0, 256, 256), 8, 1)
	for i := 0; i < n; i++ {
		x := 120 + float64(i%4)*2
		y := 120 + float64(i/4)*2
		b.AddCell("c", netlist.StdCell, x, y, 2, 8)
	}
	b.SetTargetDensity(0.5)
	return b.MustBuild()
}

func TestFieldPushesClusterApart(t *testing.T) {
	d := clusterDesign(t, 64)
	m := New(d, 32)
	m.Compute()
	// Cells on the cluster's left edge must feel a leftward force (gradient
	// positive → descent moves them left... gradient of D wrt x is −A·Ex, and
	// descent direction is −grad = +A·Ex; Ex points away from density peak).
	left := 0 // cell at (120,120): left-bottom corner of cluster
	ex, _ := m.Field(d.Cells[left].X, d.Cells[left].Y)
	if ex >= 0 {
		t.Errorf("left-edge cell feels Ex=%v, want negative (pointing left, away from cluster)", ex)
	}
	right := 3 // cell at (126,120): right edge of first row
	ex2, _ := m.Field(d.Cells[right].X+1, d.Cells[right].Y)
	if ex2 <= 0 {
		t.Errorf("right-edge probe feels Ex=%v, want positive", ex2)
	}
}

func TestPenaltyDecreasesWhenSpread(t *testing.T) {
	d := clusterDesign(t, 64)
	m := New(d, 32)
	m.Compute()
	before := m.Penalty()

	// Spread the same cells over a 4x larger region.
	for i := range d.Cells {
		c := &d.Cells[i]
		c.X = 64 + float64(i%8)*16
		c.Y = 64 + float64(i/8)*16
	}
	m.Compute()
	after := m.Penalty()
	if after >= before {
		t.Errorf("penalty did not decrease on spreading: before %v after %v", before, after)
	}
}

func TestOverflowDropsWhenSpread(t *testing.T) {
	d := clusterDesign(t, 64)
	m := New(d, 32)
	m.Compute()
	before := m.Overflow()
	for i := range d.Cells {
		c := &d.Cells[i]
		c.X = 20 + float64(i%8)*28
		c.Y = 20 + float64(i/8)*28
	}
	m.Compute()
	after := m.Overflow()
	if before <= after {
		t.Errorf("overflow did not drop: clustered %v spread %v", before, after)
	}
	if after < 0 || before < 0 {
		t.Errorf("negative overflow")
	}
}

func TestGradientMatchesPenaltyFiniteDifference(t *testing.T) {
	// The analytic gradient −A·E must roughly match finite differences of
	// the penalty (the field itself is exact; interpolation introduces small
	// error, so tolerances are loose).
	d := clusterDesign(t, 16)
	m := New(d, 32)
	m.Compute()
	grad := make([]float64, 2*len(d.Cells))
	m.AccumCellGrad(grad, 1)

	ci := 0
	const h = 0.5
	eval := func() float64 {
		m.Compute()
		return m.Penalty()
	}
	d.Cells[ci].X += h
	fp := eval()
	d.Cells[ci].X -= 2 * h
	fm := eval()
	d.Cells[ci].X += h
	m.Compute()
	fd := (fp - fm) / (2 * h)
	// Sign and order of magnitude must agree.
	if math.Signbit(fd) != math.Signbit(grad[2*ci]) && math.Abs(fd) > 1e-6 {
		t.Errorf("gradient sign mismatch: analytic %v, finite-diff %v", grad[2*ci], fd)
	}
}

func TestInflationIncreasesLocalDensity(t *testing.T) {
	// Use a target density low enough that no fillers are created, so the
	// density map contains only the real cells.
	b := netlist.NewBuilder("nofill", geom.NewRect(0, 0, 256, 256), 8, 1)
	for i := 0; i < 32; i++ {
		b.AddCell("c", netlist.StdCell, 120+float64(i%4)*2, 120+float64(i/4)*2, 2, 8)
	}
	b.SetTargetDensity(0.005)
	d := b.MustBuild()
	m := New(d, 32)
	if m.NumFillers() != 0 {
		t.Fatalf("expected no fillers, got %d", m.NumFillers())
	}
	m.Compute()
	base := m.CellDensityMap()
	r := make([]float64, len(d.Cells))
	for i := range r {
		r[i] = 2.0
	}
	if err := m.SetInflations(r); err != nil {
		t.Fatal(err)
	}
	m.Compute()
	inflated := m.CellDensityMap()
	var sumB, sumI float64
	for i := range base {
		sumB += base[i]
		sumI += inflated[i]
	}
	ratio := sumI / sumB
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("inflating all cells 2x changed cell area by %v, want ~2x", ratio)
	}
}

func TestSetInflationsLengthChecked(t *testing.T) {
	d := clusterDesign(t, 4)
	m := New(d, 16)
	if err := m.SetInflations([]float64{1}); err == nil {
		t.Errorf("SetInflations with bad length did not error")
	}
	if err := m.SetPGDensity([]float64{1, 2}); err == nil {
		t.Errorf("SetPGDensity with bad length did not error")
	}
	if err := m.SetPGDensity(nil); err != nil {
		t.Errorf("SetPGDensity(nil) must clear without error, got %v", err)
	}
}

func TestPGDensityRaisesPenalty(t *testing.T) {
	d := clusterDesign(t, 32)
	m := New(d, 32)
	m.Compute()
	base := m.Penalty()

	// Add PG density right under the cluster.
	pg := make([]float64, m.NX*m.NY)
	bx := int((122 - 0) / m.BinW())
	by := int((122 - 0) / m.BinH())
	pg[by*m.NX+bx] = m.BinW() * m.BinH() * 0.8
	m.SetPGDensity(pg)
	m.Compute()
	withPG := m.Penalty()
	if withPG <= base {
		t.Errorf("PG density under cluster did not raise penalty: %v <= %v", withPG, base)
	}
	m.SetPGDensity(nil)
	m.Compute()
	cleared := m.Penalty()
	if math.Abs(cleared-base) > 1e-9*math.Abs(base) {
		t.Errorf("clearing PG density did not restore penalty: %v vs %v", cleared, base)
	}
}

func TestFillersCreated(t *testing.T) {
	d := synth.MustGenerate("tiny_open") // utilization 0.40 → fillers needed
	m := New(d, 32)
	if m.NumFillers() == 0 {
		t.Fatalf("no fillers created for low-utilization design")
	}
	// Fillers must be inside the die.
	for k := 0; k < m.NumFillers(); k++ {
		x, y := m.FillerPos[2*k], m.FillerPos[2*k+1]
		if !d.Die.ContainsClosed(geom.Point{X: x, Y: y}) {
			t.Errorf("filler %d at (%v,%v) outside die", k, x, y)
		}
	}
}

func TestClampFillers(t *testing.T) {
	d := synth.MustGenerate("tiny_open")
	m := New(d, 32)
	if m.NumFillers() == 0 {
		t.Skip("no fillers")
	}
	m.FillerPos[0] = -1000
	m.FillerPos[1] = 1e9
	m.ClampFillers()
	if m.FillerPos[0] < d.Die.Lo.X || m.FillerPos[1] > d.Die.Hi.Y {
		t.Errorf("fillers not clamped: (%v,%v)", m.FillerPos[0], m.FillerPos[1])
	}
}

func TestMacroRepelsCells(t *testing.T) {
	// A big fixed macro creates a field pushing a nearby cell away from it.
	b := netlist.NewBuilder("m", geom.NewRect(0, 0, 256, 256), 8, 1)
	b.AddCell("macro", netlist.Macro, 128, 128, 80, 80)
	b.AddCell("c", netlist.StdCell, 178, 128, 2, 8) // just right of macro edge (168)
	b.SetTargetDensity(0.9)
	d := b.MustBuild()
	m := New(d, 32)
	m.Compute()
	ex, _ := m.Field(d.Cells[1].X, d.Cells[1].Y)
	if ex <= 0 {
		t.Errorf("cell right of macro feels Ex=%v, want positive (pushed right)", ex)
	}
}

func TestFillerGradLengthChecked(t *testing.T) {
	d := synth.MustGenerate("tiny_open")
	m := New(d, 32)
	m.Compute()
	defer func() {
		if recover() == nil {
			t.Errorf("AccumFillerGrad with bad length did not panic")
		}
	}()
	m.AccumFillerGrad(make([]float64, 1), 1)
}

func TestOverflowSmallForUniformSpread(t *testing.T) {
	// Cells (and fillers) spread quasi-uniformly at low utilization →
	// overflow far below the fully clustered case.
	b := netlist.NewBuilder("u", geom.NewRect(0, 0, 256, 256), 8, 1)
	for i := 0; i < 64; i++ {
		b.AddCell("c", netlist.StdCell, 16+float64(i%8)*32, 16+float64(i/8)*32, 2, 8)
	}
	b.SetTargetDensity(0.6)
	d := b.MustBuild()
	m := New(d, 32)
	m.Compute()
	if ovf := m.Overflow(); ovf > 0.15 {
		t.Errorf("uniform low-density spread has overflow %v, want < 0.15", ovf)
	}
}

func BenchmarkComputeTinyHot(b *testing.B) {
	d := synth.MustGenerate("tiny_hot")
	m := New(d, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Compute()
	}
}
