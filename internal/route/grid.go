// Package route implements the global-routing substrate of the framework: a
// 3-D G-cell grid with per-layer directional capacities, an MST-based net
// decomposition, congestion-aware L/Z-shape pattern routing with a small
// rip-up-and-reroute loop, and the congestion map of paper Eq. 3.
//
// It is the CPU substitution for the GPU-accelerated Z-shape router [18] the
// paper invokes to estimate routing congestion (see DESIGN.md): the placer
// consumes only the demand/capacity maps, which any congestion-aware pattern
// router produces with the same structure.
package route

import (
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/spectral"
)

// Dir is a routing layer's preferred direction.
type Dir uint8

const (
	// Horizontal layers carry x-direction wires.
	Horizontal Dir = iota
	// Vertical layers carry y-direction wires.
	Vertical
)

// trackPitch is the nominal routing track pitch in DBU; a G-cell of width w
// offers w/trackPitch tracks per layer before scaling. One DBU is one site
// width in the synthetic technology, and one routing track per site per
// layer yields placed-design average utilizations in the realistic 0.3–0.6
// band (hotspots above 1.0), which is where routability optimization is
// meaningful.
const trackPitch = 0.5

// macroCapFactor is the fraction of capacity left over macros (wires can
// still cross on top-level layers).
const macroCapFactor = 0.25

// Grid is the 3-D routing fabric: NX columns × NY rows of G-cells with
// Layers routing layers of alternating preferred direction (layer 0 is
// horizontal, mirroring M2 in a typical stack; M1 is pin-only and unmodeled).
type Grid struct {
	NX, NY int
	Layers int
	CellW  float64
	CellH  float64
	Die    geom.Rect

	LayerDir []Dir
	// Cap[l][i] is the routing capacity of G-cell i on layer l, in tracks.
	Cap [][]float64
}

// NewGrid builds the routing grid for a design with roughly gridHint G-cells
// per axis (rounded to a power of two so it can share dimensions with the
// density bins, as the paper requires in Sec. II-B).
func NewGrid(d *netlist.Design, gridHint int) *Grid {
	if gridHint < 16 {
		gridHint = 16
	}
	n := spectral.NextPow2(gridHint)
	g := &Grid{
		NX:    n,
		NY:    n,
		Die:   d.Die,
		CellW: d.Die.W() / float64(n),
		CellH: d.Die.H() / float64(n),
	}
	layers := d.RouteLayers
	if layers < 2 {
		layers = 2
	}
	g.Layers = layers
	g.LayerDir = make([]Dir, layers)
	for l := range g.LayerDir {
		if l%2 == 0 {
			g.LayerDir[l] = Horizontal
		} else {
			g.LayerDir[l] = Vertical
		}
	}
	scale := d.RouteCapScale
	if scale <= 0 {
		scale = 1
	}
	g.Cap = make([][]float64, layers)
	for l := 0; l < layers; l++ {
		g.Cap[l] = make([]float64, n*n)
		var per float64
		if g.LayerDir[l] == Horizontal {
			per = g.CellH / trackPitch * scale
		} else {
			per = g.CellW / trackPitch * scale
		}
		if per < 1 {
			per = 1
		}
		for i := range g.Cap[l] {
			g.Cap[l][i] = per
		}
	}
	// Macros consume most of the lower-layer routing resources above them.
	for _, r := range d.MacroRects() {
		x0, y0 := g.CellAt(r.Lo.X, r.Lo.Y)
		x1, y1 := g.CellAt(r.Hi.X-1e-9, r.Hi.Y-1e-9)
		for l := 0; l < layers; l++ {
			f := macroCapFactor
			if l >= layers-2 {
				f = 0.7 // top two layers stay mostly routable over macros
			}
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					g.Cap[l][y*g.NX+x] *= f
				}
			}
		}
	}
	return g
}

// CellAt returns the (column, row) of the G-cell containing point (x, y),
// clamped to the grid.
func (g *Grid) CellAt(x, y float64) (int, int) {
	cx := int((x - g.Die.Lo.X) / g.CellW)
	cy := int((y - g.Die.Lo.Y) / g.CellH)
	return geom.ClampInt(cx, 0, g.NX-1), geom.ClampInt(cy, 0, g.NY-1)
}

// CapTotal returns the total capacity of G-cell i summed over layers
// (Cap_{m,n} of Sec. II-B).
func (g *Grid) CapTotal(i int) float64 {
	var s float64
	for l := 0; l < g.Layers; l++ {
		s += g.Cap[l][i]
	}
	return s
}

// DirLayers returns the indices of the layers with direction dir.
func (g *Grid) DirLayers(dir Dir) []int {
	var out []int
	for l, d := range g.LayerDir {
		if d == dir {
			out = append(out, l)
		}
	}
	return out
}

// Result holds one routing pass's outputs: the 3-D demand map, the 2-D
// congestion map of Eq. 3, and summary metrics.
type Result struct {
	Grid *Grid
	// Dmd[l][i]: wire+via demand of G-cell i on layer l.
	Dmd [][]float64
	// Congestion[i] = max(ΣDmd/ΣCap − 1, 0) per Eq. 3.
	Congestion []float64
	// Util[i] = ΣDmd/ΣCap (un-clamped utilization; Alg. 2 thresholds it).
	Util []float64

	WirelengthDBU float64 // total routed wirelength in DBU
	Vias          int     // total via count
	OverflowTotal float64 // Σ max(0, Dmd−Cap) over G-cells (2-D)
	OverflowCells int     // number of overflowed G-cells
	MaxUtil       float64

	// Segments is the number of two-pin segments routed; RoundsRun the
	// number of routing rounds executed (telemetry bookkeeping).
	Segments  int
	RoundsRun int
}

// DemandTotal returns ΣDmd over layers at G-cell i.
func (r *Result) DemandTotal(i int) float64 {
	var s float64
	for l := range r.Dmd {
		s += r.Dmd[l][i]
	}
	return s
}

// finalize computes congestion, utilization and overflow from the demand.
// The output slices are reused across calls on the same Result (the router
// refills one Result per call; see Route's ownership contract).
func (r *Result) finalize() {
	g := r.Grid
	n := g.NX * g.NY
	if len(r.Congestion) != n {
		r.Congestion = make([]float64, n)
		r.Util = make([]float64, n)
	}
	r.OverflowTotal = 0
	r.OverflowCells = 0
	r.MaxUtil = 0
	for i := 0; i < n; i++ {
		cap := g.CapTotal(i)
		dmd := r.DemandTotal(i)
		u := 0.0
		if cap > 0 {
			u = dmd / cap
		} else if dmd > 0 {
			u = 2
		}
		r.Util[i] = u
		if u > r.MaxUtil {
			r.MaxUtil = u
		}
		r.Congestion[i] = 0
		if c := u - 1; c > 0 {
			r.Congestion[i] = c
			r.OverflowTotal += dmd - cap
			r.OverflowCells++
		}
	}
}

// AvgCongestion returns the mean of the congestion map (C̄ used by Eq. 12 and
// Eq. 15). Note the mean is over all G-cells, including zero entries.
func (r *Result) AvgCongestion() float64 {
	if len(r.Congestion) == 0 {
		return 0
	}
	var s float64
	for _, c := range r.Congestion {
		s += c
	}
	return s / float64(len(r.Congestion))
}

// CongestionAt returns the congestion value of the G-cell containing (x, y).
func (r *Result) CongestionAt(x, y float64) float64 {
	cx, cy := r.Grid.CellAt(x, y)
	return r.Congestion[cy*r.Grid.NX+cx]
}
