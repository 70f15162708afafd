package route

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// twoCellDesign builds two cells connected by one net at given positions.
func twoCellDesign(t testing.TB, x1, y1, x2, y2 float64) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("two", geom.NewRect(0, 0, 256, 256), 8, 1)
	b.AddCell("a", netlist.StdCell, x1, y1, 2, 8)
	b.AddCell("b", netlist.StdCell, x2, y2, 2, 8)
	n := b.AddNet("n", 1)
	b.Connect(0, n, 0, 0)
	b.Connect(1, n, 0, 0)
	return b.MustBuild()
}

func TestGridDimensionsAndCapacity(t *testing.T) {
	d := synth.MustGenerate("tiny_open")
	g := NewGrid(d, 30)
	if g.NX != 32 || g.NY != 32 {
		t.Errorf("grid dims %dx%d, want 32x32 (power of two)", g.NX, g.NY)
	}
	if g.Layers != d.RouteLayers {
		t.Errorf("layers %d, want %d", g.Layers, d.RouteLayers)
	}
	for i := 0; i < g.NX*g.NY; i++ {
		if g.CapTotal(i) <= 0 {
			t.Fatalf("G-cell %d has no capacity", i)
		}
	}
	if len(g.DirLayers(Horizontal))+len(g.DirLayers(Vertical)) != g.Layers {
		t.Errorf("layer directions do not partition layers")
	}
}

func TestMacroReducesCapacity(t *testing.T) {
	b := netlist.NewBuilder("m", geom.NewRect(0, 0, 256, 256), 8, 1)
	b.AddCell("macro", netlist.Macro, 128, 128, 64, 64)
	b.AddCell("c", netlist.StdCell, 20, 20, 2, 8)
	n := b.AddNet("n", 1)
	b.Connect(0, n, 0, 0)
	b.Connect(1, n, 0, 0)
	d := b.MustBuild()
	g := NewGrid(d, 32)
	cx, cy := g.CellAt(128, 128)
	over := g.CapTotal(cy*g.NX + cx)
	fx, fy := g.CellAt(20, 220)
	free := g.CapTotal(fy*g.NX + fx)
	if over >= free {
		t.Errorf("capacity over macro (%v) not below free area (%v)", over, free)
	}
}

func TestCellAtClamps(t *testing.T) {
	d := synth.MustGenerate("tiny_open")
	g := NewGrid(d, 32)
	x, y := g.CellAt(-1e9, 1e9)
	if x != 0 || y != g.NY-1 {
		t.Errorf("CellAt did not clamp: (%d,%d)", x, y)
	}
}

func TestStraightNetDemand(t *testing.T) {
	// A purely horizontal two-pin net must create only horizontal demand
	// along its row, with no bends.
	d := twoCellDesign(t, 20, 128, 200, 128)
	g := NewGrid(d, 32)
	r := NewRouter(d, g)
	res := r.Route()
	if res.Vias != pinVias*len(d.Pins) {
		t.Errorf("straight net created bend vias: %d", res.Vias)
	}
	// Demand must exist in the row of y=128 between the cells.
	cx1, cy := g.CellAt(20, 128)
	cx2, _ := g.CellAt(200, 128)
	for cx := cx1; cx <= cx2; cx++ {
		if res.DemandTotal(cy*g.NX+cx) <= 0 {
			t.Errorf("no demand at G-cell (%d,%d)", cx, cy)
		}
	}
	// Wirelength ≈ Manhattan distance in grid units.
	wantWL := float64(cx2-cx1) * g.CellW
	if math.Abs(res.WirelengthDBU-wantWL) > 1e-9 {
		t.Errorf("WL %v, want %v", res.WirelengthDBU, wantWL)
	}
}

func TestLShapeCreatesViaAndBothDirections(t *testing.T) {
	d := twoCellDesign(t, 20, 20, 200, 200)
	g := NewGrid(d, 32)
	r := NewRouter(d, g)
	res := r.Route()
	bendVias := res.Vias - pinVias*len(d.Pins)
	if bendVias < 1 {
		t.Errorf("diagonal net created no bend vias")
	}
	// WL is at least Manhattan distance.
	cx1, cy1 := g.CellAt(20, 20)
	cx2, cy2 := g.CellAt(200, 200)
	manhattan := float64(abs(cx2-cx1))*g.CellW + float64(abs(cy2-cy1))*g.CellH
	if res.WirelengthDBU < manhattan-1e-9 {
		t.Errorf("WL %v below Manhattan %v", res.WirelengthDBU, manhattan)
	}
}

func TestCongestionMapMatchesEq3(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	res := NewRouter(d, g).Route()
	for i := 0; i < g.NX*g.NY; i++ {
		util := res.DemandTotal(i) / g.CapTotal(i)
		want := math.Max(util-1, 0)
		if math.Abs(res.Congestion[i]-want) > 1e-9 {
			t.Fatalf("congestion[%d] = %v, want max(%v−1,0) = %v", i, res.Congestion[i], util, want)
		}
		if res.Congestion[i] < 0 {
			t.Fatalf("negative congestion at %d", i)
		}
	}
}

func TestReroutingReducesOverflow(t *testing.T) {
	// More RRR rounds must not increase total overflow on a congested case.
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	r1 := NewRouter(d, g)
	r1.Rounds = 1
	res1 := r1.Route()
	r3 := NewRouter(d, g)
	r3.Rounds = 3
	res3 := r3.Route()
	if res3.OverflowTotal > res1.OverflowTotal*1.05 {
		t.Errorf("RRR increased overflow: 1 round %v, 3 rounds %v", res1.OverflowTotal, res3.OverflowTotal)
	}
}

func TestRouterDeterministic(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	a := NewRouter(d, g).Route()
	b := NewRouter(d, g).Route()
	if a.WirelengthDBU != b.WirelengthDBU || a.Vias != b.Vias || a.OverflowTotal != b.OverflowTotal {
		t.Errorf("router not deterministic")
	}
	for i := range a.Congestion {
		if a.Congestion[i] != b.Congestion[i] {
			t.Fatalf("congestion differs at %d", i)
		}
	}
}

func TestSpreadingCellsReducesCongestion(t *testing.T) {
	// The central claim the placer relies on: moving cells apart in a
	// hotspot reduces peak congestion there.
	b := netlist.NewBuilder("hot", geom.NewRect(0, 0, 256, 256), 8, 1)
	const n = 60
	for i := 0; i < n; i++ {
		b.AddCell("c", netlist.StdCell, 124+float64(i%4)*2, 124+float64(i/4)*2, 2, 8)
	}
	// Dense local interconnect.
	for i := 0; i+1 < n; i++ {
		net := b.AddNet("n", 1)
		b.Connect(i, net, 0, 0)
		b.Connect(i+1, net, 0, 0)
	}
	b.SetRouteCapScale(0.5)
	d := b.MustBuild()
	g := NewGrid(d, 32)
	clustered := NewRouter(d, g).Route()

	for i := range d.Cells {
		d.Cells[i].X = 24 + float64(i%8)*28
		d.Cells[i].Y = 24 + float64(i/8)*28
	}
	spread := NewRouter(d, g).Route()
	if spread.MaxUtil >= clustered.MaxUtil {
		t.Errorf("spreading did not reduce max utilization: %v → %v", clustered.MaxUtil, spread.MaxUtil)
	}
}

func TestAvgAndAtAccessors(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	res := NewRouter(d, g).Route()
	var sum float64
	for _, c := range res.Congestion {
		sum += c
	}
	if math.Abs(res.AvgCongestion()-sum/float64(len(res.Congestion))) > 1e-12 {
		t.Errorf("AvgCongestion wrong")
	}
	// CongestionAt must agree with direct indexing at G-cell (5, 7)'s center.
	x := g.Die.Lo.X + 5.5*g.CellW
	y := g.Die.Lo.Y + 7.5*g.CellH
	if res.CongestionAt(x, y) != res.Congestion[7*g.NX+5] {
		t.Errorf("CongestionAt disagrees with map")
	}
}

func TestRUDYBasics(t *testing.T) {
	d := twoCellDesign(t, 20, 128, 200, 128)
	g := NewGrid(d, 32)
	rudy := RUDY(d, g)
	var total float64
	peak := 0.0
	for _, v := range rudy {
		if v < 0 {
			t.Fatalf("negative RUDY")
		}
		total += v
		if v > peak {
			peak = v
		}
	}
	if total <= 0 {
		t.Fatalf("RUDY empty")
	}
	// Demand concentrates in the net's row.
	cx, cy := g.CellAt(110, 128)
	if rudy[cy*g.NX+cx] < peak/2 {
		t.Errorf("RUDY low along the net row")
	}
}

func TestRUDYCorrelatesWithRouter(t *testing.T) {
	// On a real design, G-cells with high routed demand should tend to have
	// high RUDY too (rank correlation over a coarse split).
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	res := NewRouter(d, g).Route()
	rudy := RUDY(d, g)
	// Compare mean RUDY over the top-decile routed cells vs the rest.
	type pair struct{ dmd, rudy float64 }
	n := g.NX * g.NY
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{res.DemandTotal(i), rudy[i]}
	}
	var hiSum, hiN, loSum, loN float64
	// Threshold at the routed-demand mean.
	var dmdMean float64
	for _, p := range pairs {
		dmdMean += p.dmd
	}
	dmdMean /= float64(n)
	for _, p := range pairs {
		if p.dmd > dmdMean {
			hiSum += p.rudy
			hiN++
		} else {
			loSum += p.rudy
			loN++
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("degenerate split")
	}
	if hiSum/hiN <= loSum/loN {
		t.Errorf("RUDY does not correlate with routed demand: hi %v lo %v", hiSum/hiN, loSum/loN)
	}
}

func BenchmarkRouteTinyHot(b *testing.B) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRouter(d, g).Route()
	}
}

func BenchmarkRouteFFT1(b *testing.B) {
	d := synth.MustGenerate("fft_1")
	g := NewGrid(d, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRouter(d, g).Route()
	}
}
