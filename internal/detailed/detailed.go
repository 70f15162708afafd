// Package detailed implements the detailed-placement refinement that follows
// legalization in the flow (paper Fig. 2): legality-preserving local moves
// that reduce wirelength without disturbing the routability achieved by the
// global placement. Two passes are provided:
//
//   - optimal row shifting: each cell slides inside the free interval
//     between its row neighbours to the median-x of its connected pins;
//   - adjacent swapping: neighbouring same-row cell pairs are swapped when
//     that reduces HPWL and both still fit.
//
// Both passes are deterministic and verified against legalize.CheckLegal in
// the tests.
package detailed

import (
	"context"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// Options configures Refine.
type Options struct {
	// Passes is the number of shift+swap sweeps (default 2).
	Passes int
	// Trace, when non-nil, receives one span per refinement pass.
	Trace *telemetry.Tracer
}

// Result reports what Refine did.
type Result struct {
	HPWLBefore float64
	HPWLAfter  float64
	Shifts     int
	Swaps      int
}

// rowOf groups movable cells by row index.
func rowOf(d *netlist.Design) map[int][]int {
	rows := map[int][]int{}
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() {
			continue
		}
		r := int(math.Round((c.Y - c.H/2 - d.Die.Lo.Y) / d.RowHeight))
		rows[r] = append(rows[r], ci)
	}
	for r := range rows {
		ids := rows[r]
		sort.Slice(ids, func(i, j int) bool { return d.Cells[ids[i]].X < d.Cells[ids[j]].X })
	}
	return rows
}

// RefineContext runs the detailed-placement passes in place. The design
// must be legal on entry; it stays legal on exit. Cancellation is checked
// between passes and between rows: on cancellation it returns ctx.Err()
// with the refinement incomplete — the design is still LEGAL (every
// individual move preserves legality) but callers wanting the
// pre-refinement placement back must back up positions themselves.
func RefineContext(ctx context.Context, d *netlist.Design, opt Options) (Result, error) {
	passes := opt.Passes
	if passes <= 0 {
		passes = 2
	}
	res := Result{HPWLBefore: d.HPWL()}
	// Macro footprints never move during refinement; collect them once.
	// (Calling d.MacroRects per candidate move scans every cell — at 500k
	// cells that turns the sweeps quadratic.)
	macros := d.MacroRects()
	for p := 0; p < passes; p++ {
		sp := opt.Trace.Start("detailed.pass")
		rows := rowOf(d)
		keys := make([]int, 0, len(rows))
		for r := range rows {
			keys = append(keys, r)
		}
		sort.Ints(keys)
		for _, r := range keys {
			if err := ctx.Err(); err != nil {
				sp.End()
				res.HPWLAfter = d.HPWL()
				return res, err
			}
			res.Shifts += shiftRow(d, rows[r], macros)
			res.Swaps += swapRow(d, rows[r], macros)
		}
		sp.End()
	}
	res.HPWLAfter = d.HPWL()
	return res, nil
}

// medianTargetX returns the HPWL-optimal x center for cell ci: the median of
// the other-pin bounding intervals of its nets (the standard optimal-region
// argument restricted to one dimension).
func medianTargetX(d *netlist.Design, ci int) (float64, bool) {
	var lows, highs []float64
	c := &d.Cells[ci]
	for _, pi := range c.Pins {
		pin := &d.Pins[pi]
		net := &d.Nets[pin.Net]
		if net.Degree() < 2 {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, qi := range net.Pins {
			if qi == pi {
				continue
			}
			x := d.PinPos(qi).X
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if lo <= hi {
			// Optimal interval for this net's pin, translated to the cell
			// center by the pin offset.
			lows = append(lows, lo-pin.OffX)
			highs = append(highs, hi-pin.OffX)
		}
	}
	if len(lows) == 0 {
		return 0, false
	}
	all := append(lows, highs...)
	sort.Float64s(all)
	n := len(all)
	return (all[n/2-1+n%2] + all[n/2]) / 2, true
}

// shiftRow slides each cell toward its median target within the free gap
// between its neighbours (macro boundaries are respected because neighbours
// were legal and gaps never extend past them — the cell only moves within
// [prevRight, nextLeft]).
func shiftRow(d *netlist.Design, ids []int, macros []geom.Rect) int {
	shifts := 0
	for k, ci := range ids {
		c := &d.Cells[ci]
		target, ok := medianTargetX(d, ci)
		if !ok {
			continue
		}
		lo := d.Die.Lo.X
		hi := d.Die.Hi.X
		if k > 0 {
			p := &d.Cells[ids[k-1]]
			lo = p.X + p.W/2
		}
		if k+1 < len(ids) {
			n := &d.Cells[ids[k+1]]
			hi = n.X - n.W/2
		}
		// Constrain by macros: keep the cell within its current free span by
		// never crossing its previous footprint's blockage state — cells sit
		// in macro-free segments already, and the neighbour bound keeps them
		// there unless the row has macro gaps between neighbours. Guard by
		// scanning macros on this row.
		lo, hi = clipByMacros(macros, c, lo, hi)
		if hi-lo < c.W {
			continue
		}
		x := geom.Clamp(target, lo+c.W/2, hi-c.W/2)
		x = snapCenter(d, c, x)
		if x != c.X && x >= lo+c.W/2-1e-9 && x <= hi-c.W/2+1e-9 {
			c.X = x
			shifts++
		}
	}
	return shifts
}

// clipByMacros narrows [lo, hi] so the span of cell c cannot cross a macro
// footprint on its row.
func clipByMacros(macros []geom.Rect, c *netlist.Cell, lo, hi float64) (float64, float64) {
	y0, y1 := c.Y-c.H/2, c.Y+c.H/2
	for _, m := range macros {
		if m.Hi.Y <= y0 || m.Lo.Y >= y1 {
			continue
		}
		// Macro intersects the row band.
		if m.Hi.X <= c.X-c.W/2 {
			lo = math.Max(lo, m.Hi.X)
		}
		if m.Lo.X >= c.X+c.W/2 {
			hi = math.Min(hi, m.Lo.X)
		}
	}
	return lo, hi
}

// snapCenter snaps the cell center so the left edge lands on the site grid.
func snapCenter(d *netlist.Design, c *netlist.Cell, x float64) float64 {
	left := math.Round((x-c.W/2)/d.SiteWidth) * d.SiteWidth
	return left + c.W/2
}

// swapRow tries swapping each adjacent same-row pair when that lowers the
// HPWL of the nets touching them and both cells still fit in each other's
// spot (always true for equal widths; for unequal widths the pair is
// re-packed left-to-right in the union span).
func swapRow(d *netlist.Design, ids []int, macros []geom.Rect) int {
	swaps := 0
	for k := 0; k+1 < len(ids); k++ {
		a := ids[k]
		b := ids[k+1]
		ca, cb := &d.Cells[a], &d.Cells[b]
		before := localHPWL(d, a, b)
		ax, bx := ca.X, cb.X
		// Re-pack the union span with the order reversed.
		left := ax - ca.W/2
		cb.X = left + cb.W/2
		ca.X = left + cb.W + ca.W/2
		// The original pair may have had a macro in the gap between them;
		// the repacked footprints must stay clear of every macro.
		if overlapsMacro(macros, ca) || overlapsMacro(macros, cb) {
			ca.X, cb.X = ax, bx
			continue
		}
		after := localHPWL(d, a, b)
		if after+1e-12 < before {
			swaps++
			ids[k], ids[k+1] = ids[k+1], ids[k]
		} else {
			ca.X, cb.X = ax, bx
		}
	}
	return swaps
}

// overlapsMacro reports whether cell c's footprint intersects any macro.
func overlapsMacro(macros []geom.Rect, c *netlist.Cell) bool {
	r := c.Rect()
	for _, m := range macros {
		if m.Intersects(r) {
			return true
		}
	}
	return false
}

// localHPWL sums the HPWL of the nets incident to cells a or b.
func localHPWL(d *netlist.Design, a, b int) float64 {
	seen := map[int]bool{}
	var sum float64
	for _, ci := range []int{a, b} {
		for _, pi := range d.Cells[ci].Pins {
			e := d.Pins[pi].Net
			if seen[e] || d.Nets[e].Degree() < 2 {
				continue
			}
			seen[e] = true
			bb := d.NetBBox(e)
			w := d.Nets[e].Weight
			if w == 0 {
				w = 1
			}
			sum += w * (bb.W() + bb.H())
		}
	}
	return sum
}
