// Package legalize places the movable standard cells of a globally placed
// design onto legal row/site positions with minimum displacement, using the
// Abacus algorithm (Spindler, Schlichtmann, Johannes, DATE 2008): cells are
// processed in x order; each is trialed in nearby rows (in every row when no
// nearby row has room), where a row insertion collapses into clusters whose
// optimal positions minimize total squared displacement; the cheapest row
// wins.
//
// It is the stand-in for the "routability-driven legalization" step of the
// paper's flow (Fig. 2) — the routability part of the flow lives in global
// placement; legalization here preserves the global placement's spreading.
package legalize

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// NoRoomError is legalization's deterministic failure: once the cells
// before it are placed, no free row segment anywhere on the die has room
// for cell Cell. The same design and global placement fail the same way on
// every run, so retrying cannot help.
type NoRoomError struct {
	Cell int
	Name string
	W    float64
}

func (e *NoRoomError) Error() string {
	return fmt.Sprintf("legalize: no room for cell %d (%s, w=%v)", e.Cell, e.Name, e.W)
}

// segment is a free interval [x0, x1) of one row.
type segment struct {
	x0, x1   float64
	clusters []cluster
	used     float64 // total cell width committed
}

// cluster is a maximal group of abutting cells within a segment.
type cluster struct {
	x     float64 // left edge
	w     float64 // total width
	e     float64 // weight (cell count; unit weights)
	q     float64 // Σ (desiredX_i − offset_i)
	cells []int
}

// maxRowSearch bounds how many rows above/below a cell's ideal row are tried
// before the search widens to the whole die.
const maxRowSearch = 6

// row is one placement row with its free segments.
type row struct {
	y    float64 // row bottom
	segs []segment
}

// Legalizer legalizes one design.
type Legalizer struct {
	// Trace, when non-nil, receives spans for the sort and Abacus scan
	// phases.
	Trace *telemetry.Tracer

	d    *netlist.Design
	rows []row
}

// New prepares the row structure of the design: rows spanning the die,
// split by macro footprints.
func New(d *netlist.Design) *Legalizer {
	l := &Legalizer{d: d}
	macros := d.MacroRects()
	numRows := int(d.Die.H() / d.RowHeight)
	for r := 0; r < numRows; r++ {
		y := d.Die.Lo.Y + float64(r)*d.RowHeight
		rowRect := geom.NewRect(d.Die.Lo.X, y, d.Die.Hi.X, y+d.RowHeight)
		// Any macro overlapping ANY part of the row's height blocks its x
		// span for the whole row.
		live := [][2]float64{{d.Die.Lo.X, d.Die.Hi.X}}
		for _, m := range macros {
			if !m.Intersects(rowRect) {
				continue
			}
			var next [][2]float64
			for _, iv := range live {
				if iv[0] < m.Lo.X {
					next = append(next, [2]float64{iv[0], math.Min(iv[1], m.Lo.X)})
				}
				if iv[1] > m.Hi.X {
					next = append(next, [2]float64{math.Max(iv[0], m.Hi.X), iv[1]})
				}
			}
			live = next
			if len(live) == 0 {
				break
			}
		}
		rw := row{y: y}
		for _, iv := range live {
			// Snap inward to the site grid.
			x0 := math.Ceil(iv[0]/d.SiteWidth) * d.SiteWidth
			x1 := math.Floor(iv[1]/d.SiteWidth) * d.SiteWidth
			if x1 > x0 {
				rw.segs = append(rw.segs, segment{x0: x0, x1: x1})
			}
		}
		l.rows = append(l.rows, rw)
	}
	return l
}

// RunContext legalizes all movable cells in place (updating their centers)
// and returns the total and maximum displacement. A *NoRoomError is
// returned when a cell cannot be placed anywhere (die over-full).
// Cancellation is checked once per cell: on cancellation it returns
// ctx.Err() with the design left PARTIALLY legalized — some cells moved,
// some not. Callers wanting all-or-nothing semantics (the pipeline's
// checkpoint machinery does) must back up the movable positions before
// calling and restore them on error.
func (l *Legalizer) RunContext(ctx context.Context) (totalDisp, maxDisp float64, err error) {
	d := l.d
	sp := l.Trace.Start("legalize.sort")
	order := d.MovableIndices()
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := &d.Cells[order[a]], &d.Cells[order[b]]
		if ca.X != cb.X {
			return ca.X < cb.X
		}
		return order[a] < order[b]
	})
	sp.End()

	sp = l.Trace.Start("legalize.abacus")
	defer sp.End()
	for _, ci := range order {
		if err := ctx.Err(); err != nil {
			return totalDisp, maxDisp, err
		}
		c := &d.Cells[ci]
		bestCost := math.Inf(1)
		bestRow, bestSeg := -1, -1
		ideal := int((c.Y - d.RowHeight/2 - d.Die.Lo.Y) / d.RowHeight)
		// A cell the ±maxRowSearch window cannot place widens the search
		// to every row, nearest first; a cell the window places stops
		// exactly where the window ends.
		for dr := 0; dr <= maxRowSearch || (bestRow < 0 && (ideal-dr >= 0 || ideal+dr < len(l.rows))); dr++ {
			for _, r := range []int{ideal - dr, ideal + dr} {
				if dr == 0 && r != ideal {
					continue
				}
				if r < 0 || r >= len(l.rows) {
					continue
				}
				// Prune: even a perfect x placement cannot beat bestCost if
				// the row's y displacement alone exceeds it.
				dy := l.rows[r].y + d.RowHeight/2 - c.Y
				if dy*dy >= bestCost {
					continue
				}
				si, cost := l.trialRow(r, ci)
				if si >= 0 && cost < bestCost {
					bestCost = cost
					bestRow, bestSeg = r, si
				}
			}
		}
		if bestRow < 0 {
			return totalDisp, maxDisp, &NoRoomError{Cell: ci, Name: c.Name, W: c.W}
		}
		ox, oy := c.X, c.Y
		l.commit(bestRow, bestSeg, ci)
		disp := math.Hypot(c.X-ox, c.Y-oy)
		totalDisp += disp
		if disp > maxDisp {
			maxDisp = disp
		}
	}
	return totalDisp, maxDisp, nil
}

// trialRow finds the best segment in row r for cell ci and returns its index
// and the squared-displacement cost; (-1, inf) when the cell does not fit.
func (l *Legalizer) trialRow(r int, ci int) (int, float64) {
	d := l.d
	c := &d.Cells[ci]
	rw := &l.rows[r]
	yCenter := rw.y + d.RowHeight/2
	bestSeg, bestCost := -1, math.Inf(1)
	for si := range rw.segs {
		s := &rw.segs[si]
		if s.used+c.W > s.x1-s.x0 {
			continue
		}
		x := l.trialSegment(s, c)
		dx := x + c.W/2 - c.X
		dy := yCenter - c.Y
		cost := dx*dx + dy*dy
		if cost < bestCost {
			bestCost = cost
			bestSeg = si
		}
	}
	return bestSeg, bestCost
}

// trialSegment simulates appending cell c to segment s (cells arrive in x
// order, so appending at the tail is correct) and returns the final left-edge
// x the cell would get after cluster collapse.
func (l *Legalizer) trialSegment(s *segment, c *netlist.Cell) float64 {
	desired := c.X - c.W/2
	// Simulate cluster merging without mutating s.
	type sim struct{ x, w, e, q float64 }
	var st []sim
	for _, cl := range s.clusters {
		st = append(st, sim{cl.x, cl.w, cl.e, cl.q})
	}
	st = append(st, sim{x: desired, w: c.W, e: 1, q: desired})
	// Collapse from the top.
	for len(st) >= 1 {
		top := &st[len(st)-1]
		x := top.q / top.e
		x = geom.Clamp(x, s.x0, s.x1-top.w)
		top.x = x
		if len(st) >= 2 && st[len(st)-2].x+st[len(st)-2].w > x {
			prev := st[len(st)-2]
			merged := sim{
				w: prev.w + top.w,
				e: prev.e + top.e,
				q: prev.q + top.q - top.e*prev.w,
			}
			st = st[:len(st)-2]
			st = append(st, merged)
			continue
		}
		break
	}
	top := st[len(st)-1]
	// The appended cell sits at the end of the top cluster.
	return snap(top.x+top.w-c.W, l.d.SiteWidth)
}

// commit performs the real insertion of cell ci into segment si of row r and
// assigns final positions to every cell in the affected clusters.
func (l *Legalizer) commit(r, si, ci int) {
	d := l.d
	c := &d.Cells[ci]
	s := &l.rows[r].segs[si]
	desired := c.X - c.W/2

	s.clusters = append(s.clusters, cluster{
		x: desired, w: c.W, e: 1, q: desired, cells: []int{ci},
	})
	s.used += c.W
	// Collapse.
	for {
		top := &s.clusters[len(s.clusters)-1]
		x := top.q / top.e
		x = geom.Clamp(x, s.x0, s.x1-top.w)
		top.x = x
		n := len(s.clusters)
		if n >= 2 && s.clusters[n-2].x+s.clusters[n-2].w > x {
			prev := s.clusters[n-2]
			merged := cluster{
				w:     prev.w + top.w,
				e:     prev.e + top.e,
				q:     prev.q + top.q - top.e*prev.w,
				cells: append(prev.cells, top.cells...),
			}
			s.clusters = s.clusters[:n-2]
			s.clusters = append(s.clusters, merged)
			continue
		}
		break
	}
	// Assign positions for every cell in every cluster (cheap: clusters are
	// re-assigned only when touched, but a full sweep keeps it simple and
	// correct).
	yCenter := l.rows[r].y + d.RowHeight/2
	for _, cl := range s.clusters {
		x := snap(cl.x, d.SiteWidth)
		for _, id := range cl.cells {
			cell := &d.Cells[id]
			cell.X = x + cell.W/2
			cell.Y = yCenter
			x += cell.W
		}
	}
}

func snap(x, site float64) float64 {
	return math.Round(x/site) * site
}

// CheckLegal verifies that all movable cells sit on rows and sites, inside
// the die, without overlapping each other or any macro. It returns a
// descriptive error for the first violation found.
func CheckLegal(d *netlist.Design) error {
	type placed struct {
		x0, x1 float64
		id     int
	}
	rows := map[int][]placed{}
	macros := d.MacroRects()
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() {
			continue
		}
		r := c.Rect()
		if r.Lo.X < d.Die.Lo.X-1e-6 || r.Hi.X > d.Die.Hi.X+1e-6 ||
			r.Lo.Y < d.Die.Lo.Y-1e-6 || r.Hi.Y > d.Die.Hi.Y+1e-6 {
			return fmt.Errorf("cell %d (%s) outside die: %v", ci, c.Name, r)
		}
		rowIdx := (r.Lo.Y - d.Die.Lo.Y) / d.RowHeight
		if math.Abs(rowIdx-math.Round(rowIdx)) > 1e-6 {
			return fmt.Errorf("cell %d (%s) not row-aligned: y0=%v", ci, c.Name, r.Lo.Y)
		}
		siteIdx := (r.Lo.X - d.Die.Lo.X) / d.SiteWidth
		if math.Abs(siteIdx-math.Round(siteIdx)) > 1e-6 {
			return fmt.Errorf("cell %d (%s) not site-aligned: x0=%v", ci, c.Name, r.Lo.X)
		}
		for _, m := range macros {
			if m.Intersects(r) {
				return fmt.Errorf("cell %d (%s) overlaps a macro", ci, c.Name)
			}
		}
		rows[int(math.Round(rowIdx))] = append(rows[int(math.Round(rowIdx))], placed{r.Lo.X, r.Hi.X, ci})
	}
	for _, cells := range rows {
		sort.Slice(cells, func(i, j int) bool { return cells[i].x0 < cells[j].x0 })
		for i := 1; i < len(cells); i++ {
			if cells[i].x0 < cells[i-1].x1-1e-6 {
				return fmt.Errorf("cells %d and %d overlap in a row", cells[i-1].id, cells[i].id)
			}
		}
	}
	return nil
}
