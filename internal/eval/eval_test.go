package eval

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/synth"
)

func TestEvaluateBasics(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	m := Evaluate(d, 32)
	if m.DRWL <= 0 {
		t.Errorf("DRWL = %v", m.DRWL)
	}
	if m.DRVias <= 0 {
		t.Errorf("DRVias = %v", m.DRVias)
	}
	if m.DRVs < 0 {
		t.Errorf("DRVs = %v", m.DRVs)
	}
	if m.HPWL <= 0 {
		t.Errorf("HPWL = %v", m.HPWL)
	}
	if math.IsNaN(m.OverflowViol + m.PinDensViol + m.PinAccessViol) {
		t.Errorf("NaN in violation components")
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	a := Evaluate(d, 32)
	b := Evaluate(d, 32)
	if a != b {
		t.Errorf("evaluation not deterministic: %+v vs %+v", a, b)
	}
}

func TestClusteredPlacementScoresWorse(t *testing.T) {
	// The DRV oracle must prefer a spread placement over a compacted one
	// when the netlist is local (nets connect physical neighbours, as they
	// do after placement) — this is the property every Table I comparison
	// rests on. Compacting such a design shortens wires only modestly but
	// multiplies density and pin crowding.
	build := func(scale float64) *netlist.Design {
		b := netlist.NewBuilder("mesh", geom.NewRect(0, 0, 256, 256), 8, 1)
		const n = 16 // 16×16 mesh
		cx, cy := 128.0, 128.0
		idx := func(i, j int) int { return i*n + j }
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				x := cx + (float64(j)-float64(n-1)/2)*14*scale
				y := cy + (float64(i)-float64(n-1)/2)*14*scale
				b.AddCell("c", netlist.StdCell, x, y, 3, 8)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j+1 < n {
					net := b.AddNet("h", 1)
					b.Connect(idx(i, j), net, 0, 0)
					b.Connect(idx(i, j+1), net, 0, 0)
				}
				if i+1 < n {
					net := b.AddNet("v", 1)
					b.Connect(idx(i, j), net, 0, 0)
					b.Connect(idx(i+1, j), net, 0, 0)
				}
			}
		}
		b.SetRouteCapScale(0.6)
		return b.MustBuild()
	}
	spread := Evaluate(build(1.0), 32)
	clustered := Evaluate(build(0.25), 32)
	if clustered.DRVs <= spread.DRVs {
		t.Errorf("clustered DRVs %d not worse than spread %d", clustered.DRVs, spread.DRVs)
	}
}

func TestScoreMatchesEvaluate(t *testing.T) {
	d := synth.MustGenerate("tiny_open")
	g := route.NewGrid(d, 32)
	r := route.NewRouter(d, g)
	r.Rounds = 4
	res := r.Route()
	viaScore := Score(d, res)
	viaEval := Evaluate(d, 32)
	if viaScore != viaEval {
		t.Errorf("Score and Evaluate disagree: %+v vs %+v", viaScore, viaEval)
	}
}

func TestPinAccessComponentRespondsToRails(t *testing.T) {
	// A cell sitting on a selected PG rail in a congested bin must produce
	// pin-access violations; removing the rails removes them.
	b := netlist.NewBuilder("pa", geom.NewRect(0, 0, 128, 128), 8, 1)
	const n = 40
	for i := 0; i < n; i++ {
		b.AddCell("c", netlist.StdCell, 60+float64(i%8)*2, 60+float64(i/8)*2, 2, 8)
	}
	for _, stride := range []int{1, 2, 3, 8, 16} {
		for i := 0; i+stride < n; i++ {
			net := b.AddNet("n", 1)
			b.Connect(i, net, 0, 0)
			b.Connect(i+stride, net, 0, 0)
		}
	}
	// Rail passing through the congested cluster.
	b.AddRail(geom.Segment{A: geom.Point{X: 0, Y: 64}, B: geom.Point{X: 128, Y: 64}}, 2)
	b.SetRouteCapScale(0.10)
	d := b.MustBuild()
	withRail := Evaluate(d, 32)

	d.Rails = nil
	withoutRail := Evaluate(d, 32)
	if withRail.PinAccessViol <= withoutRail.PinAccessViol {
		t.Errorf("pin-access component ignored the rail: %v vs %v",
			withRail.PinAccessViol, withoutRail.PinAccessViol)
	}
	if withoutRail.PinAccessViol != 0 {
		t.Errorf("pin-access violations without rails: %v", withoutRail.PinAccessViol)
	}
}

func TestDecomposeClassifiesBothKinds(t *testing.T) {
	// Build the Fig. 1 scenario: a dense cell cluster (local congestion)
	// plus long nets traversing an empty corridor (global congestion).
	b := netlist.NewBuilder("fig1", geom.NewRect(0, 0, 256, 256), 8, 1)
	const n = 48
	for i := 0; i < n; i++ {
		b.AddCell("c", netlist.StdCell, 40+float64(i%4)*3, 40+float64(i/4)*3, 3, 8)
	}
	for i := 0; i+1 < n; i++ {
		net := b.AddNet("n", 1)
		b.Connect(i, net, 0, 0)
		b.Connect(i+1, net, 0, 0)
	}
	// Long nets crossing the empty top corridor: pairs of cells on the far
	// left and right edges at high y, concentrated on two rows so the
	// through-traffic overflows the corridor G-cells.
	for k := 0; k < 40; k++ {
		a := b.AddCell("la", netlist.StdCell, 4, 200+float64(k%2)*8, 2, 8)
		c := b.AddCell("lb", netlist.StdCell, 252, 200+float64(k%2)*8, 2, 8)
		net := b.AddNet("long", 1)
		b.Connect(a, net, 0, 0)
		b.Connect(c, net, 0, 0)
	}
	b.SetRouteCapScale(0.25)
	d := b.MustBuild()
	g := route.NewGrid(d, 32)
	res := route.NewRouter(d, g).Route()
	dec := Decompose(d, res)
	if dec.LocalCells == 0 {
		t.Errorf("no local congestion found near the cluster")
	}
	if dec.GlobalCells == 0 {
		t.Errorf("no global congestion found in the corridor")
	}
	// Class array consistency.
	var local, global int
	for _, cl := range dec.Class {
		switch cl {
		case 1:
			local++
		case 2:
			global++
		}
	}
	if local != dec.LocalCells || global != dec.GlobalCells {
		t.Errorf("class counts inconsistent")
	}
}

func TestEvaluateAfterLegalization(t *testing.T) {
	d := synth.MustGenerate("tiny_open")
	before := Evaluate(d, 32)
	if _, _, err := legalize.New(d).RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := Evaluate(d, 32)
	// Legalization of an already-spread design must not explode the metrics.
	if after.DRWL > 2*before.DRWL+1 {
		t.Errorf("legalization doubled DRWL: %v → %v", before.DRWL, after.DRWL)
	}
}
