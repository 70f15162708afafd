// Package congestion implements the paper's primary contribution (Sec. II-B
// and III-A): a differentiable global-congestion function developed from
// Poisson's equation, with net-driven gradient updates.
//
// The routing utilization ρ = Dmd/Cap on the G-cell grid is fed to the same
// spectral Poisson solver the density term uses, yielding a congestion
// potential ψ_c and field E_c = −∇ψ_c. Cell congestion gradients are NOT the
// raw field (that only handles local congestion); instead:
//
//   - every two-pin net gets a virtual standard cell at the most congested
//     point of its pin-connecting segment (Eq. 6–8), and the virtual cell's
//     field force, projected on the segment normal and levered by L/(2d_iv)
//     (Eq. 9, Algorithm 1), is transferred to the net's two cells — moving
//     the whole net sideways out of the congested region;
//   - cells with more pins than the design average sitting in G-cells with
//     congestion above 0.7 receive the raw field force (Algorithm 2);
//   - the penalty weight λ₂ adapts every iteration per Eq. 10.
package congestion

import (
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/poisson"
	"repro/internal/route"
)

// Model computes the congestion potential, penalty C(x,y) and the
// net-driven congestion gradients for one design on one routing grid.
type Model struct {
	// UtilThreshold is Algorithm 2's congestion threshold for multi-pin
	// cells (paper: 0.7 on the Eq. 3 congestion value).
	UtilThreshold float64
	// MaxLeverage clamps the L/(2·d_iv) factor of Eq. 9 so a virtual cell
	// landing on top of a pin cannot produce an unbounded force.
	MaxLeverage float64
	// VirtualAtMidpoint switches Eq. 8 off for the ablation study: the
	// virtual cell is placed at the segment midpoint instead of the
	// maximum-congestion candidate.
	VirtualAtMidpoint bool
	// Workers caps the goroutines of the embedded Poisson solve and of the
	// gradient assembly; 0 selects runtime.GOMAXPROCS(0). Any setting
	// produces bitwise-identical fields and gradients.
	Workers int

	d *netlist.Design
	g *route.Grid

	solver *poisson.Solver
	field  *poisson.Grid
	rho    []float64

	stdArea float64 // virtual cell area: the average movable cell footprint
	avgPins float64 // n̄ of Algorithm 2
	movable int     // N of Eq. 10: the movable cell count

	res *route.Result // last routing result fed to Update

	// virtual cell bookkeeping from the last Gradients call, reused by
	// Penalty so V' matches the gradients.
	virtX, virtY []float64

	// Gradient assembly state (see Gradients). Two-pin net e's virtual cell
	// is virt[e] and, when has[e], its Algorithm 1 terms for pins 0 and 1
	// are term[2e] and term[2e+1]; only the shard that owns net e writes
	// them. The gather applies terms to movable cells only.
	term []geom.Point
	has  []bool
	virt []virtualCell
	// The two pins of every two-pin net, built once by New: pin k of net e
	// sits on cell pinCell[2e+k] at offset (pinOff[4e+2k], pinOff[4e+2k+1]).
	// Algorithm 1 reads the cell positions from the design on every call,
	// since the placer moves cells between calls.
	pinCell []int32
	pinOff  []float64
	// Per-cell gather, built once by New: cell c applies the entries
	// order[orderStart[c]:orderStart[c+1]], each an Algorithm 1 slot or
	// alg2, in the serial assembly's order.
	orderStart []int32
	order      []int32
}

// alg2 marks a gather entry that applies the cell's Algorithm 2 force.
const alg2 = -1

type virtualCell struct {
	pos geom.Point
	ok  bool
}

// Stats summarizes one gradient assembly pass.
type Stats struct {
	VirtualCells  int     // virtual cells created (two-pin nets over congestion)
	MultiPinHits  int     // multi-pin cell force applications
	CongestedCell int     // N_C of Eq. 10: cells whose G-cell has C > 0
	GradL1        float64 // ‖∇C‖₁ over movable cells
}

// New creates a congestion model for the design on the routing grid.
func New(d *netlist.Design, g *route.Grid) *Model {
	solver, err := poisson.NewSolver(g.NX, g.NY)
	if err != nil {
		// route.NewGrid produces power-of-two dimensions by construction; a
		// failure here is a programming error, not a caller mistake.
		panic(err)
	}
	m := &Model{
		UtilThreshold: 0.7,
		MaxLeverage:   4.0,
		d:             d,
		g:             g,
		solver:        solver,
		rho:           make([]float64, g.NX*g.NY),
		avgPins:       d.AvgPinsPerCell(),
	}
	m.field = m.solver.NewGrid()
	m.term = make([]geom.Point, 2*len(d.Nets))
	m.has = make([]bool, len(d.Nets))
	m.virt = make([]virtualCell, len(d.Nets))
	m.pinCell = make([]int32, 2*len(d.Nets))
	m.pinOff = make([]float64, 4*len(d.Nets))
	for e := range d.Nets {
		if net := &d.Nets[e]; net.Degree() == 2 {
			for k, pi := range net.Pins {
				pin := &d.Pins[pi]
				m.pinCell[2*e+k] = int32(pin.Cell)
				m.pinOff[4*e+2*k], m.pinOff[4*e+2*k+1] = pin.OffX, pin.OffY
			}
		}
	}
	m.buildGather()
	var area float64
	for i := range d.Cells {
		if d.Cells[i].Movable() {
			area += d.Cells[i].Area()
			m.movable++
		}
	}
	if m.movable > 0 {
		m.stdArea = area / float64(m.movable)
	} else {
		m.stdArea = d.RowHeight * d.SiteWidth
	}
	return m
}

// buildGather lists every cell's gradient terms in the order the serial
// assembly subtracts them: nets ascending, and within a net the Algorithm 1
// terms of pins 0 and 1 (two-pin nets only), then one Algorithm 2 entry per
// pin in pin order. Pass 0 counts each cell's entries, pass 1 fills them.
func (m *Model) buildGather() {
	d := m.d
	n := len(d.Cells)
	m.orderStart = make([]int32, n+1)
	var pos []int32
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			for c := 0; c < n; c++ {
				m.orderStart[c+1] += m.orderStart[c]
			}
			m.order = make([]int32, m.orderStart[n])
			pos = append([]int32(nil), m.orderStart[:n]...)
		}
		add := func(c int, entry int32) {
			if pass == 0 {
				m.orderStart[c+1]++
				return
			}
			m.order[pos[c]] = entry
			pos[c]++
		}
		for e := range d.Nets {
			net := &d.Nets[e]
			if net.Degree() < 2 {
				continue
			}
			if net.Degree() == 2 {
				add(d.Pins[net.Pins[0]].Cell, int32(2*e))
				add(d.Pins[net.Pins[1]].Cell, int32(2*e+1))
			}
			for _, pi := range net.Pins {
				add(d.Pins[pi].Cell, alg2)
			}
		}
	}
}

// Update ingests a fresh routing result: ρ = Dmd/Cap per G-cell (Sec. II-B)
// is solved for the congestion potential and field.
func (m *Model) Update(res *route.Result) {
	if res.Grid != m.g {
		panic("congestion: routing result from a different grid")
	}
	m.res = res
	copy(m.rho, res.Util)
	m.solver.Workers = m.Workers
	m.solver.Solve(m.rho, m.field)
}

// SolverStats returns the timing of the embedded Poisson solver's parallel
// sections (telemetry: the parallel.poisson speedup gauge).
func (m *Model) SolverStats() parallel.Timing { return m.solver.Stats() }

// Ready reports whether Update has been called at least once.
func (m *Model) Ready() bool { return m.res != nil }

// State returns deep copies of the utilization and congestion maps of the
// last Update (nil, nil before the first Update). Together with the grid —
// which is a pure function of the design — they are the model's complete
// serializable state: the potential field is re-derived from them.
func (m *Model) State() (util, congestion []float64) {
	if m.res == nil {
		return nil, nil
	}
	return append([]float64(nil), m.res.Util...),
		append([]float64(nil), m.res.Congestion...)
}

// Restore rebuilds the model as if Update had been called with a routing
// result carrying these maps: the Poisson solve is re-run, which is a pure
// deterministic function of util, so the restored potential and field are
// bitwise-identical to the ones the snapshotted model held.
func (m *Model) Restore(util, congestion []float64) {
	n := m.g.NX * m.g.NY
	if len(util) != n || len(congestion) != n {
		panic("congestion: restore map length mismatch")
	}
	m.res = &route.Result{
		Grid:       m.g,
		Util:       append([]float64(nil), util...),
		Congestion: append([]float64(nil), congestion...),
	}
	copy(m.rho, util)
	m.solver.Workers = m.Workers
	m.solver.Solve(m.rho, m.field)
}

// sample bilinearly interpolates a field array at die coordinates (x, y).
func (m *Model) sample(f []float64, x, y float64) float64 {
	fx := (x-m.g.Die.Lo.X)/m.g.CellW - 0.5
	fy := (y-m.g.Die.Lo.Y)/m.g.CellH - 0.5
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	tx := geom.Clamp(fx-float64(x0), 0, 1)
	ty := geom.Clamp(fy-float64(y0), 0, 1)
	x0 = geom.ClampInt(x0, 0, m.g.NX-1)
	y0 = geom.ClampInt(y0, 0, m.g.NY-1)
	x1 := geom.ClampInt(x0+1, 0, m.g.NX-1)
	y1 := geom.ClampInt(y0+1, 0, m.g.NY-1)
	return f[y0*m.g.NX+x0]*(1-tx)*(1-ty) + f[y0*m.g.NX+x1]*tx*(1-ty) +
		f[y1*m.g.NX+x0]*(1-tx)*ty + f[y1*m.g.NX+x1]*tx*ty
}

// FieldAt returns the congestion field E_c = −∇ψ_c at (x, y).
func (m *Model) FieldAt(x, y float64) (float64, float64) {
	return m.sample(m.field.Ex, x, y), m.sample(m.field.Ey, x, y)
}

// PotentialAt returns the congestion potential ψ_c at (x, y). The first call
// after a solve synthesizes ψ_c.
func (m *Model) PotentialAt(x, y float64) float64 {
	m.solver.Potential(m.field)
	return m.sample(m.field.Psi, x, y)
}

// congestionAtPoint reads the Eq. 3 congestion of the G-cell containing p.
func (m *Model) congestionAtPoint(x, y float64) float64 {
	cx, cy := m.g.CellAt(x, y)
	return m.res.Congestion[cy*m.g.NX+cx]
}

// VirtualCell computes Eq. 6–8 for a two-pin net with pin positions p1, p2:
// the segment is sampled at k interior candidates, and the candidate in the
// most congested G-cell becomes the virtual cell location. ok is false when
// the segment spans no interior candidate (k = 0) or no candidate sees any
// congestion — in both cases the net needs no moving.
func (m *Model) VirtualCell(p1, p2 geom.Point) (pos geom.Point, ok bool) {
	k := int(math.Max(
		math.Floor(math.Abs(p1.X-p2.X)/m.g.CellW),
		math.Floor(math.Abs(p1.Y-p2.Y)/m.g.CellH),
	))
	if k < 1 {
		return geom.Point{}, false
	}
	if m.VirtualAtMidpoint {
		// Ablation variant: ignore the congestion profile.
		mid := geom.Point{X: (p1.X + p2.X) / 2, Y: (p1.Y + p2.Y) / 2}
		if m.congestionAtPoint(mid.X, mid.Y) <= 0 {
			return geom.Point{}, false
		}
		return mid, true
	}
	bestC := 0.0
	var best geom.Point
	found := false
	for i := 1; i <= k; i++ {
		t := float64(i) / float64(k+1)
		cand := geom.Point{X: p1.X + t*(p2.X-p1.X), Y: p1.Y + t*(p2.Y-p1.Y)}
		c := m.congestionAtPoint(cand.X, cand.Y)
		if c > bestC {
			bestC = c
			best = cand
			found = true
		}
	}
	return best, found
}

// Gradients assembles the congestion gradient ∂C/∂(cell center) following
// Algorithm 2 (which invokes Algorithm 1 per two-pin net) and ACCUMULATES it
// into grad (layout [gx0,gy0,...], length 2·len(Cells)); callers zero the
// buffer first ("initially, we set the congestion gradient of all cells to
// 0"). Returns assembly statistics. Update must have been called.
//
// The assembly is bitwise the serial loop over nets that subtracts each
// term from its cell as it goes, for any worker count. A net-parallel pass
// writes every two-pin net's Algorithm 1 terms and virtual cell into the
// net's own slots. A cell-parallel gather then subtracts each cell's terms
// in the serial order; an Algorithm 2 term is a function of the cell
// alone, so the gather computes it once per cell and subtracts it at each
// of the cell's Algorithm 2 entries. Counts reduce per shard, and ‖∇C‖₁
// and the virtual-cell list are built serially in cell and net order.
func (m *Model) Gradients(grad []float64) Stats {
	if m.res == nil {
		panic("congestion: Gradients before Update")
	}
	if len(grad) != 2*len(m.d.Cells) {
		panic("congestion: gradient length mismatch")
	}
	var st Stats
	parallel.For(m.Workers, len(m.d.Nets), func(_, lo, hi int) {
		for e := lo; e < hi; e++ {
			if m.d.Nets[e].Degree() == 2 {
				m.twoPinGradient(e)
			}
		}
	})
	var hits, congested [parallel.NumShards]int
	parallel.For(m.Workers, len(m.d.Cells), func(shard, lo, hi int) {
		hits[shard], congested[shard] = m.gather(grad, lo, hi)
	})
	for s := range hits {
		st.MultiPinHits += hits[s]
		st.CongestedCell += congested[s]
	}

	m.virtX = m.virtX[:0]
	m.virtY = m.virtY[:0]
	for _, v := range m.virt {
		if v.ok {
			m.virtX = append(m.virtX, v.pos.X)
			m.virtY = append(m.virtY, v.pos.Y)
		}
	}
	st.VirtualCells = len(m.virtX)
	for ci := range m.d.Cells {
		if m.d.Cells[ci].Movable() {
			st.GradL1 += math.Abs(grad[2*ci]) + math.Abs(grad[2*ci+1])
		}
	}
	return st
}

// gather subtracts the terms of cells [lo, hi) from grad and returns the
// Algorithm 2 force applications and the congested movable cells (N_C of
// Eq. 10) among them.
func (m *Model) gather(grad []float64, lo, hi int) (hits, congested int) {
	for ci := lo; ci < hi; ci++ {
		c := &m.d.Cells[ci]
		if !c.Movable() {
			continue
		}
		cong := m.congestionAtPoint(c.X, c.Y)
		if cong > 0 {
			congested++
		}
		// Algorithm 2 lines 7–15: cells with more pins than average in a
		// G-cell above the threshold receive the raw field force A·E,
		// which pushes away from congestion; the gradient is its negation.
		var f geom.Point
		multiPin := float64(c.NumPins) > m.avgPins && cong > m.UtilThreshold
		if multiPin {
			ex, ey := m.FieldAt(c.X, c.Y)
			a := c.Area()
			// Rounded explicitly: no target may fuse the product into the
			// subtractions below.
			f = geom.Point{X: float64(a * ex), Y: float64(a * ey)}
		}
		gx, gy := grad[2*ci], grad[2*ci+1]
		for _, k := range m.order[m.orderStart[ci]:m.orderStart[ci+1]] {
			switch {
			case k == alg2:
				if multiPin {
					gx -= f.X
					gy -= f.Y
					hits++
				}
			case m.has[k/2]:
				gx -= m.term[k].X
				gy -= m.term[k].Y
			}
		}
		grad[2*ci], grad[2*ci+1] = gx, gy
	}
	return hits, congested
}

// twoPinGradient is Algorithm 1 for two-pin net e: create the virtual
// cell, project its field force on the segment normal, and lever it onto
// the two cells. It writes the net's virtual cell and its two term slots.
func (m *Model) twoPinGradient(e int) {
	m.has[e] = false
	c1, c2 := &m.d.Cells[m.pinCell[2*e]], &m.d.Cells[m.pinCell[2*e+1]]
	off := m.pinOff[4*e : 4*e+4]
	p1 := geom.Point{X: c1.X + off[0], Y: c1.Y + off[1]}
	p2 := geom.Point{X: c2.X + off[2], Y: c2.Y + off[3]}
	v, ok := m.VirtualCell(p1, p2)
	m.virt[e] = virtualCell{pos: v, ok: ok}
	if !ok {
		return
	}

	ex, ey := m.FieldAt(v.X, v.Y)
	fv := geom.Point{X: m.stdArea * ex, Y: m.stdArea * ey} // ∇C_cv as a force

	L := p1.Dist(p2)
	if L == 0 {
		return
	}
	// Unit normal of the segment, oriented to an acute angle with the force.
	n := geom.Point{X: -(p2.Y - p1.Y) / L, Y: (p2.X - p1.X) / L}
	if n.Dot(fv) < 0 {
		n = n.Scale(-1)
	}
	// Projection ∇C⊥ (Fig. 3b).
	fperp := n.Scale(fv.Dot(n))

	for k, p := range [2]geom.Point{p1, p2} {
		div := p.Dist(v)
		factor := m.MaxLeverage
		if div > 0 {
			factor = math.Min(L/(2*div), m.MaxLeverage)
		}
		m.term[2*e+k] = geom.Point{X: factor * fperp.X, Y: factor * fperp.Y}
	}
	m.has[e] = true
}

// Penalty returns C(x,y) = ½·Σ_{i∈V'} A_i·ψ_i (Sec. II-B) where V' is the
// multi-pin cells (pin count above average) plus the virtual cells created
// by the most recent Gradients call.
func (m *Model) Penalty() float64 {
	if m.res == nil {
		panic("congestion: Penalty before Update")
	}
	var sum float64
	for ci := range m.d.Cells {
		c := &m.d.Cells[ci]
		if !c.Movable() || float64(c.NumPins) <= m.avgPins {
			continue
		}
		sum += c.Area() * m.PotentialAt(c.X, c.Y)
	}
	for i := range m.virtX {
		sum += m.stdArea * m.PotentialAt(m.virtX[i], m.virtY[i])
	}
	return sum / 2
}

// Lambda2 computes the adaptive congestion weight of Eq. 10:
//
//	λ₂ = (2·N_C/N) · ‖∇W‖₁ / ‖∇C‖₁
//
// wlGradL1 is ‖∇W‖₁ over movable cells; st is the Stats from the matching
// Gradients call. A zero congestion gradient yields λ₂ = 0 (nothing to push).
func (m *Model) Lambda2(wlGradL1 float64, st Stats) float64 {
	if m.movable == 0 || st.GradL1 == 0 {
		return 0
	}
	return (2 * float64(st.CongestedCell) / float64(m.movable)) * (wlGradL1 / st.GradL1)
}
