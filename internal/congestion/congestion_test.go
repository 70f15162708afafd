package congestion

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/synth"
)

// hotspotSetup builds a design with a dense traffic hotspot in the middle of
// the die (many short nets between clustered cells) and one long horizontal
// two-pin "victim" net whose chord passes through the hotspot.
func hotspotSetup(t testing.TB) (*netlist.Design, *route.Grid, *route.Result, *Model) {
	t.Helper()
	b, _ := hotspotBuilder()
	b.SetRouteCapScale(0.12)
	d := b.MustBuild()
	g := route.NewGrid(d, 32)
	res := route.NewRouter(d, g).Route()
	m := New(d, g)
	m.Update(res)
	return d, g, res, m
}

// hotspotBuilder adds hotspotSetup's cells and nets to a fresh builder and
// returns it with the hub cell's index.
func hotspotBuilder() (b *netlist.Builder, hub int) {
	b = netlist.NewBuilder("hotspot", geom.NewRect(0, 0, 256, 256), 8, 1)
	const n = 48
	for i := 0; i < n; i++ {
		b.AddCell("h", netlist.StdCell, 120+float64(i%8)*2, 120+float64(i/8)*2, 2, 8)
	}
	for i := 0; i+1 < n; i++ {
		net := b.AddNet("hn", 1)
		b.Connect(i, net, 0, 0)
		b.Connect(i+1, net, 0, 0)
	}
	// Victim net: two cells at the same y as the hotspot, far left/right.
	va := b.AddCell("va", netlist.StdCell, 20, 126, 2, 8)
	vb := b.AddCell("vb", netlist.StdCell, 236, 126, 2, 8)
	vn := b.AddNet("victim", 1)
	b.Connect(va, vn, 0, 0)
	b.Connect(vb, vn, 0, 0)
	// A multi-pin hub cell inside the hotspot with far more pins than avg.
	hub = b.AddCell("hub", netlist.StdCell, 126, 126, 4, 8)
	for k := 0; k < 8; k++ {
		net := b.AddNet("hubnet", 1)
		b.Connect(hub, net, 0, 0)
		b.Connect(k, net, 0, 0)
	}
	return b, hub
}

func TestUpdateRequiresMatchingGrid(t *testing.T) {
	d, _, res, _ := hotspotSetup(t)
	other := route.NewGrid(d, 16)
	m2 := New(d, other)
	defer func() {
		if recover() == nil {
			t.Errorf("mismatched grid not caught")
		}
	}()
	m2.Update(res)
}

func TestGradientsBeforeUpdatePanics(t *testing.T) {
	d := synth.MustGenerate("tiny_open")
	g := route.NewGrid(d, 32)
	m := New(d, g)
	if m.Ready() {
		t.Fatalf("Ready before Update")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Gradients before Update did not panic")
		}
	}()
	m.Gradients(make([]float64, 2*len(d.Cells)))
}

func TestVirtualCellPlacedAtMaxCongestion(t *testing.T) {
	d, _, res, m := hotspotSetup(t)
	_ = d
	p1 := geom.Point{X: 20, Y: 126}
	p2 := geom.Point{X: 236, Y: 126}
	v, ok := m.VirtualCell(p1, p2)
	if !ok {
		t.Fatalf("no virtual cell created across the hotspot")
	}
	// The virtual cell must sit in a G-cell at least as congested as most of
	// the chord; specifically its congestion must equal the max over all
	// interior candidates.
	vc := res.CongestionAt(v.X, v.Y)
	if vc <= 0 {
		t.Fatalf("virtual cell in uncongested G-cell")
	}
	// Scan a dense sampling of the chord: nothing should beat it by much
	// (candidates are the Eq. 7 lattice, so allow small slack).
	maxC := 0.0
	for i := 1; i < 200; i++ {
		tt := float64(i) / 200
		x := p1.X + tt*(p2.X-p1.X)
		c := res.CongestionAt(x, 126)
		if c > maxC {
			maxC = c
		}
	}
	if vc < 0.7*maxC {
		t.Errorf("virtual cell congestion %v far below chord max %v", vc, maxC)
	}
	// And it must be inside the hotspot region (110..150).
	if v.X < 100 || v.X > 160 {
		t.Errorf("virtual cell at x=%v, expected inside hotspot band", v.X)
	}
}

func TestVirtualCellSkipsShortNets(t *testing.T) {
	_, g, _, m := hotspotSetup(t)
	p := geom.Point{X: 50, Y: 50}
	q := geom.Point{X: 50 + g.CellW*0.5, Y: 50}
	if _, ok := m.VirtualCell(p, q); ok {
		t.Errorf("virtual cell created for a sub-G-cell net")
	}
}

func TestVirtualCellSkipsUncongestedNets(t *testing.T) {
	_, _, res, m := hotspotSetup(t)
	// A chord along the top edge, far from the hotspot.
	p := geom.Point{X: 10, Y: 250}
	q := geom.Point{X: 240, Y: 250}
	// Verify precondition: that region is actually uncongested.
	for x := 10.0; x <= 240; x += 8 {
		if res.CongestionAt(x, 250) > 0 {
			t.Skip("top edge unexpectedly congested")
		}
	}
	if _, ok := m.VirtualCell(p, q); ok {
		t.Errorf("virtual cell created on an uncongested chord")
	}
}

func TestTwoPinGradientIsPerpendicular(t *testing.T) {
	d, _, _, m := hotspotSetup(t)
	grad := make([]float64, 2*len(d.Cells))
	m.Gradients(grad)
	// The victim net is horizontal, so its cells' congestion gradient must
	// be (near-)purely vertical (projection on the segment normal).
	va, vb := 48, 49
	for _, ci := range []int{va, vb} {
		gx, gy := grad[2*ci], grad[2*ci+1]
		// The victim cells also belong to no other net, so any gradient here
		// comes from Algorithm 1.
		if gy == 0 && gx == 0 {
			t.Fatalf("victim cell %d received no congestion gradient", ci)
		}
		if math.Abs(gx) > 1e-9+0.02*math.Abs(gy) {
			t.Errorf("victim cell %d gradient (%v, %v) not perpendicular to its horizontal net", ci, gx, gy)
		}
	}
	// Both cells must be pushed the SAME direction (the net moves rigidly).
	if grad[2*va+1]*grad[2*vb+1] < 0 {
		t.Errorf("victim cells pushed in opposite directions")
	}
}

func TestCloserPinGetsLargerForce(t *testing.T) {
	// Eq. 9: the cell nearer the virtual cell receives the larger gradient.
	b := netlist.NewBuilder("asym", geom.NewRect(0, 0, 256, 256), 8, 1)
	const n = 48
	for i := 0; i < n; i++ {
		b.AddCell("h", netlist.StdCell, 60+float64(i%8)*2, 120+float64(i/8)*2, 2, 8)
	}
	for i := 0; i+1 < n; i++ {
		net := b.AddNet("hn", 1)
		b.Connect(i, net, 0, 0)
		b.Connect(i+1, net, 0, 0)
	}
	// Victim with hotspot near its LEFT pin.
	va := b.AddCell("va", netlist.StdCell, 40, 126, 2, 8)
	vb := b.AddCell("vb", netlist.StdCell, 240, 126, 2, 8)
	vn := b.AddNet("victim", 1)
	b.Connect(va, vn, 0, 0)
	b.Connect(vb, vn, 0, 0)
	b.SetRouteCapScale(0.12)
	d := b.MustBuild()
	g := route.NewGrid(d, 32)
	res := route.NewRouter(d, g).Route()
	m := New(d, g)
	m.Update(res)
	grad := make([]float64, 2*len(d.Cells))
	m.Gradients(grad)
	fa := math.Hypot(grad[2*va], grad[2*va+1])
	fb := math.Hypot(grad[2*vb], grad[2*vb+1])
	if fa == 0 && fb == 0 {
		t.Skip("no virtual cell created (hotspot missed the chord)")
	}
	if fa <= fb {
		t.Errorf("near pin force %v not larger than far pin force %v", fa, fb)
	}
}

func TestMultiPinCellReceivesFieldForce(t *testing.T) {
	d, _, res, m := hotspotSetup(t)
	hub := 50 // the 12-pin hub inside the hotspot
	if float64(d.Cells[hub].NumPins) <= d.AvgPinsPerCell() {
		t.Fatalf("test setup: hub pin count not above average")
	}
	grad := make([]float64, 2*len(d.Cells))
	st := m.Gradients(grad)
	hubCong := res.CongestionAt(d.Cells[hub].X, d.Cells[hub].Y)
	if hubCong > m.UtilThreshold {
		if st.MultiPinHits == 0 {
			t.Errorf("no multi-pin force applied despite hub congestion %v", hubCong)
		}
		if grad[2*hub] == 0 && grad[2*hub+1] == 0 {
			t.Errorf("hub received no gradient")
		}
	} else {
		// Threshold not reached: the hub must NOT receive multi-pin force
		// (it has no two-pin nets crossing congestion either — but its
		// hub nets are two-pin, so just check the stat accounting).
		t.Logf("hub congestion %v below threshold %v; multiPinHits=%d", hubCong, m.UtilThreshold, st.MultiPinHits)
	}
}

func TestGradientZeroWithoutCongestion(t *testing.T) {
	// An uncongested design yields zero virtual cells and zero gradients.
	b := netlist.NewBuilder("calm", geom.NewRect(0, 0, 256, 256), 8, 1)
	b.AddCell("a", netlist.StdCell, 20, 20, 2, 8)
	b.AddCell("b", netlist.StdCell, 200, 200, 2, 8)
	n := b.AddNet("n", 1)
	b.Connect(0, n, 0, 0)
	b.Connect(1, n, 0, 0)
	b.SetRouteCapScale(10)
	d := b.MustBuild()
	g := route.NewGrid(d, 32)
	res := route.NewRouter(d, g).Route()
	if res.OverflowCells != 0 {
		t.Fatalf("expected no overflow in calm design")
	}
	m := New(d, g)
	m.Update(res)
	grad := make([]float64, 2*len(d.Cells))
	st := m.Gradients(grad)
	if st.VirtualCells != 0 {
		t.Errorf("virtual cells created without congestion")
	}
	for i, gv := range grad {
		if gv != 0 {
			t.Errorf("nonzero gradient at %d without congestion", i)
		}
	}
	if st.GradL1 != 0 {
		t.Errorf("GradL1 = %v, want 0", st.GradL1)
	}
}

func TestLambda2Formula(t *testing.T) {
	d, _, _, m := hotspotSetup(t)
	grad := make([]float64, 2*len(d.Cells))
	st := m.Gradients(grad)
	if st.GradL1 == 0 {
		t.Skip("no congestion gradient")
	}
	wl := 1000.0
	l2 := m.Lambda2(wl, st)
	nMov := 0
	for i := range d.Cells {
		if d.Cells[i].Movable() {
			nMov++
		}
	}
	want := (2 * float64(st.CongestedCell) / float64(nMov)) * wl / st.GradL1
	if math.Abs(l2-want) > 1e-12 {
		t.Errorf("Lambda2 = %v, want %v", l2, want)
	}
	// Zero congestion gradient → λ2 = 0.
	if m.Lambda2(wl, Stats{}) != 0 {
		t.Errorf("Lambda2 with zero gradient not 0")
	}
}

func TestPenaltyCountsVirtualAndMultiPinCells(t *testing.T) {
	d, _, _, m := hotspotSetup(t)
	grad := make([]float64, 2*len(d.Cells))
	st := m.Gradients(grad)
	p := m.Penalty()
	if st.VirtualCells > 0 && p == 0 {
		t.Errorf("penalty zero despite %d virtual cells", st.VirtualCells)
	}
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Errorf("penalty not finite: %v", p)
	}
}

func TestMidpointAblationDiffers(t *testing.T) {
	// Build a hotspot OFF-center along the victim chord so the Eq. 8
	// max-congestion rule and the midpoint ablation choose different points.
	b := netlist.NewBuilder("offcenter", geom.NewRect(0, 0, 256, 256), 8, 1)
	const n = 48
	for i := 0; i < n; i++ {
		b.AddCell("h", netlist.StdCell, 60+float64(i%8)*2, 120+float64(i/8)*2, 2, 8)
	}
	for i := 0; i+1 < n; i++ {
		net := b.AddNet("hn", 1)
		b.Connect(i, net, 0, 0)
		b.Connect(i+1, net, 0, 0)
	}
	va := b.AddCell("va", netlist.StdCell, 40, 126, 2, 8)
	vb := b.AddCell("vb", netlist.StdCell, 240, 126, 2, 8)
	vn := b.AddNet("victim", 1)
	b.Connect(va, vn, 0, 0)
	b.Connect(vb, vn, 0, 0)
	b.SetRouteCapScale(0.12)
	d := b.MustBuild()
	g := route.NewGrid(d, 32)
	res := route.NewRouter(d, g).Route()

	m1 := New(d, g)
	m1.Update(res)
	grad1 := make([]float64, 2*len(d.Cells))
	st1 := m1.Gradients(grad1)
	if st1.VirtualCells == 0 {
		t.Skip("no congestion crossing the victim chord")
	}

	m2 := New(d, g)
	m2.VirtualAtMidpoint = true
	m2.Update(res)
	grad2 := make([]float64, 2*len(d.Cells))
	m2.Gradients(grad2)

	same := true
	for i := range grad1 {
		if math.Abs(grad1[i]-grad2[i]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Errorf("midpoint ablation produced identical gradients")
	}
}

func TestDescentReducesPotentialAtVictim(t *testing.T) {
	// Moving the victim net along the negative gradient (descent) must
	// reduce the congestion potential sampled along the chord.
	d, _, _, m := hotspotSetup(t)
	grad := make([]float64, 2*len(d.Cells))
	m.Gradients(grad)
	va, vb := 48, 49
	gy := grad[2*va+1]
	if gy == 0 {
		t.Skip("no gradient on victim")
	}
	mid := func(off float64) float64 {
		return m.PotentialAt((d.Cells[va].X+d.Cells[vb].X)/2, 126+off)
	}
	step := -8.0 * sign(gy) // descend: negative gradient direction
	if mid(step) >= mid(0) {
		t.Errorf("descent step did not reduce congestion potential: %v → %v", mid(0), mid(step))
	}
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

// TestPotentialFollowsEveryUpdate: ψ_c is synthesized on first use after a
// solve, so a potential read before an Update or Restore must not leak
// into the reads after it.
func TestPotentialFollowsEveryUpdate(t *testing.T) {
	d, g, res1, m := hotspotSetup(t)
	at := func(m *Model) float64 { return m.PotentialAt(127, 127) }
	p1 := at(m)
	for i := 0; i < 48; i++ {
		d.Cells[i].X -= 80
	}
	res2 := route.NewRouter(d, g).Route()
	m.Update(res2)
	fresh := New(d, g)
	fresh.Update(res2)
	if p2 := at(m); math.Float64bits(p2) != math.Float64bits(at(fresh)) || p2 == p1 {
		t.Errorf("potential after a second Update = %v, fresh model %v, first %v", p2, at(fresh), p1)
	}
	m.Restore(res1.Util, res1.Congestion)
	if p := at(m); math.Float64bits(p) != math.Float64bits(p1) {
		t.Errorf("potential after Restore = %v, want the first solve's %v", p, p1)
	}
}
