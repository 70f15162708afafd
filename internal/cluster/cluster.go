// Package cluster implements the multilevel coarsening substrate of the
// placement pipeline: a deterministic heavy-edge-matching coarsener over the
// netlist hypergraph and the inverse interpolation that projects cluster
// positions back onto their member cells.
//
// The coarsener depends ONLY on the hypergraph topology — never on cell
// positions — so a resumed run rebuilds the identical cluster hierarchy from
// the identical input design. Visit order, tie-breaking and cluster
// numbering are all fixed by ascending cell index, making the coarse design
// a pure function of the fine design and the size cap.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/netlist"
)

// maxAffinityDegree bounds the net degree considered during matching. Larger
// hyperedges (clock/reset-like fanout) carry almost no 1/(|e|-1) weight and
// would make the pass quadratic in net degree, so they contribute to the
// coarse netlist but not to the matching affinity.
const maxAffinityDegree = 16

// targetReduction is the movable-cell shrink factor one Coarsen level aims
// for; matching passes repeat until the level reaches it (or a pass stalls).
const targetReduction = 3.5

// stallReduction ends the pass loop early: a matching pass that shrinks the
// movable count by less than this factor means the graph has no pairable
// neighbors left (all candidate merges exceed the size cap).
const stallReduction = 1.05

// ErrNoCoarsening is Hierarchy's error for a design whose first level does
// not shrink the movable-cell count: no movable cell has a neighbour it may
// merge with.
var ErrNoCoarsening = errors.New("does not coarsen")

// Map records one coarsening level: the coarse design plus the
// correspondence between fine cells and coarse clusters.
type Map struct {
	// Fine is the input design the level coarsened (not modified).
	Fine *netlist.Design
	// Coarse is the clustered design: one cell per cluster, macros and IO
	// pads passed through as fixed singletons, nets deduplicated per cluster
	// and dropped when they collapse to a single cluster.
	Coarse *netlist.Design
	// CellToCluster maps every fine cell index to its coarse cell index.
	CellToCluster []int
	// Members lists, per coarse cell, the fine member indices in ascending
	// order. Fixed cells are always singletons.
	Members [][]int
	// Weight is the number of base standard cells represented by each coarse
	// cell (1 for every cell of the original design, summed up the
	// hierarchy); fixed cells have weight 0 and never merge.
	Weight []int
}

// Coarsen builds one level of the cluster hierarchy over d. maxWeight caps
// the number of base cells a cluster may absorb (≤ 0 selects no cap).
// Macros and IO pads are never merged; only movable standard cells cluster.
// The result is deterministic and position-independent: matching visits
// cells in ascending index order, scores neighbors by the heavy-edge
// affinity Σ w(e)/(|e|−1) over shared nets, and breaks ties by the lowest
// neighbor index.
//
// weights gives the base-cell weight of every fine cell (nil means weight 1
// for movable cells — the original design); pass the previous level's
// cluster weights when stacking levels.
func Coarsen(d *netlist.Design, weights []int, maxWeight int) (*Map, error) {
	if maxWeight <= 0 {
		maxWeight = math.MaxInt
	}
	cur := d
	curW := baseWeights(d, weights)
	var total *Map
	startMovable := movableCount(d)
	for {
		m, err := matchOnce(cur, curW, maxWeight)
		if err != nil {
			return nil, err
		}
		if total == nil {
			total = m
		} else {
			total = compose(total, m)
		}
		prev := movableCount(cur)
		now := movableCount(m.Coarse)
		cur, curW = m.Coarse, m.Weight
		if now == 0 || float64(startMovable)/float64(now) >= targetReduction {
			break
		}
		if float64(prev)/float64(now) < stallReduction {
			break // pass stalled: size cap or topology admits no more merges
		}
	}
	return total, nil
}

// baseWeights normalizes the caller's weight slice: movable cells default to
// weight 1, fixed cells always weigh 0 (they never merge).
func baseWeights(d *netlist.Design, weights []int) []int {
	w := make([]int, len(d.Cells))
	for i := range d.Cells {
		if !d.Cells[i].Movable() {
			continue
		}
		if weights != nil {
			w[i] = weights[i]
		} else {
			w[i] = 1
		}
	}
	return w
}

func movableCount(d *netlist.Design) int {
	n := 0
	for i := range d.Cells {
		if d.Cells[i].Movable() {
			n++
		}
	}
	return n
}

// matchOnce runs a single heavy-edge matching pass over d and materializes
// the coarse design.
func matchOnce(d *netlist.Design, weight []int, maxWeight int) (*Map, error) {
	n := len(d.Cells)
	partner := make([]int, n)
	for i := range partner {
		partner[i] = -1
	}

	// Neighbor affinity accumulation uses a dense scratch score array plus a
	// touched list, so each cell's candidate scan is O(Σ_e |e|) without any
	// map allocation.
	score := make([]float64, n)
	touched := make([]int, 0, 64)

	for i := 0; i < n; i++ {
		if partner[i] != -1 || !d.Cells[i].Movable() {
			continue
		}
		touched = touched[:0]
		for _, pi := range d.Cells[i].Pins {
			e := d.Pins[pi].Net
			net := &d.Nets[e]
			deg := len(net.Pins)
			if deg < 2 || deg > maxAffinityDegree {
				continue
			}
			w := net.Weight
			if w == 0 {
				w = 1
			}
			aff := w / float64(deg-1)
			for _, pj := range net.Pins {
				j := d.Pins[pj].Cell
				if j == i || partner[j] != -1 || !d.Cells[j].Movable() {
					continue
				}
				if weight[i]+weight[j] > maxWeight {
					continue
				}
				if score[j] == 0 {
					touched = append(touched, j)
				}
				score[j] += aff
			}
		}
		best, bestScore := -1, 0.0
		for _, j := range touched {
			if score[j] > bestScore || (score[j] == bestScore && best != -1 && j < best) {
				best, bestScore = j, score[j]
			}
			score[j] = 0
		}
		if best != -1 {
			partner[i] = best
			partner[best] = i
		}
	}

	return materialize(d, weight, partner)
}

// materialize builds the coarse design from a matching. Cluster numbering
// follows the ascending index of each cluster's first member, so the coarse
// cell order is a deterministic function of the matching alone.
func materialize(d *netlist.Design, weight []int, partner []int) (*Map, error) {
	n := len(d.Cells)
	cellToCluster := make([]int, n)
	for i := range cellToCluster {
		cellToCluster[i] = -1
	}
	var members [][]int
	var wOut []int
	for i := 0; i < n; i++ {
		if cellToCluster[i] != -1 {
			continue
		}
		c := len(members)
		cellToCluster[i] = c
		if p := partner[i]; p > i {
			cellToCluster[p] = c
			members = append(members, []int{i, p})
			wOut = append(wOut, weight[i]+weight[p])
		} else {
			members = append(members, []int{i})
			wOut = append(wOut, weight[i])
		}
	}

	b := netlist.NewBuilder(d.Name, d.Die, d.RowHeight, d.SiteWidth)
	b.SetRouteLayers(d.RouteLayers)
	b.SetRouteCapScale(d.RouteCapScale)
	b.SetTargetDensity(d.TargetDensity)
	for c := range members {
		ms := members[c]
		first := &d.Cells[ms[0]]
		if len(ms) == 1 && !first.Movable() {
			b.AddCell(first.Name, first.Kind, first.X, first.Y, first.W, first.H)
			continue
		}
		var area, cx, cy float64
		for _, m := range ms {
			cell := &d.Cells[m]
			a := cell.Area()
			area += a
			cx += a * cell.X
			cy += a * cell.Y
		}
		cx /= area
		cy /= area
		// Coarse standard cells stay one row tall with the exact member area
		// so the density model conserves total charge across levels.
		w := area / d.RowHeight
		b.AddCell(first.Name, netlist.StdCell, cx, cy, w, d.RowHeight)
	}

	// Coarse nets: map each fine net's pins onto clusters, deduplicate, and
	// drop nets that collapse into a single cluster. Pin offsets become zero
	// (the cluster center stands in for its member pins).
	seen := make([]int, len(members))
	for i := range seen {
		seen[i] = -1
	}
	for e := range d.Nets {
		net := &d.Nets[e]
		var clusters []int
		for _, pi := range net.Pins {
			c := cellToCluster[d.Pins[pi].Cell]
			if seen[c] != e {
				seen[c] = e
				clusters = append(clusters, c)
			}
		}
		if len(clusters) < 2 {
			continue
		}
		ce := b.AddNet(net.Name, net.Weight)
		for _, c := range clusters {
			b.Connect(c, ce, 0, 0)
		}
	}
	for _, r := range d.Rails {
		b.AddRail(r.Seg, r.Width)
	}
	coarse, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("cluster: coarse design invalid: %w", err)
	}
	return &Map{
		Fine:          d,
		Coarse:        coarse,
		CellToCluster: cellToCluster,
		Members:       members,
		Weight:        wOut,
	}, nil
}

// compose merges two stacked matchings a (fine→mid) and b (mid→coarse) into
// one fine→coarse map. b's designs and weights are authoritative.
func compose(a, b *Map) *Map {
	c2c := make([]int, len(a.CellToCluster))
	for i, mid := range a.CellToCluster {
		c2c[i] = b.CellToCluster[mid]
	}
	members := make([][]int, len(b.Members))
	for c, mids := range b.Members {
		var fine []int
		for _, m := range mids {
			fine = append(fine, a.Members[m]...)
		}
		sort.Ints(fine)
		members[c] = fine
	}
	return &Map{
		Fine:          a.Fine,
		Coarse:        b.Coarse,
		CellToCluster: c2c,
		Members:       members,
		Weight:        b.Weight,
	}
}

// Hierarchy stacks levels−1 coarsening maps over d: maps[k] coarsens the
// level-k design onto level k+1 (level 0 is d itself, the finest). Building
// stops early when a level fails to shrink the movable count — the returned
// slice may be shorter than requested but never empty: when not even the
// first level shrinks it, Hierarchy fails with ErrNoCoarsening.
// maxWeight caps the base cells per cluster across the whole hierarchy
// (≤ 0 selects no cap). The hierarchy is a pure function of d's topology.
func Hierarchy(d *netlist.Design, levels, maxWeight int) ([]*Map, error) {
	if levels < 2 {
		return nil, fmt.Errorf("cluster: hierarchy needs ≥ 2 levels, got %d", levels)
	}
	var maps []*Map
	cur := d
	var weights []int
	for k := 1; k < levels; k++ {
		m, err := Coarsen(cur, weights, maxWeight)
		if err != nil {
			return nil, err
		}
		if movableCount(m.Coarse) >= movableCount(cur) {
			break // coarsening stalled; deeper levels would be identical
		}
		maps = append(maps, m)
		cur, weights = m.Coarse, m.Weight
	}
	if len(maps) == 0 {
		return nil, fmt.Errorf("cluster: design %s %w (no matchable movable cells)", d.Name, ErrNoCoarsening)
	}
	return maps, nil
}

// Interpolate projects the coarse design's cluster positions back onto the
// fine design's member cells with density-aware spreading: each cluster's
// movable members are laid out on a near-square local grid sized so that
// the member area lands at the design's target density, centered on the
// cluster position and clamped to the die. Fixed cells are untouched.
func (m *Map) Interpolate() {
	td := m.Fine.TargetDensity
	if td <= 0 || td > 1 {
		td = 1
	}
	for c := range m.Members {
		ms := m.Members[c]
		cc := &m.Coarse.Cells[c]
		if !cc.Movable() {
			continue
		}
		if len(ms) == 1 {
			f := &m.Fine.Cells[ms[0]]
			f.X, f.Y = cc.X, cc.Y
			continue
		}
		var area float64
		for _, i := range ms {
			area += m.Fine.Cells[i].Area()
		}
		side := math.Sqrt(area / td)
		cols := int(math.Ceil(math.Sqrt(float64(len(ms)))))
		rows := (len(ms) + cols - 1) / cols
		for k, i := range ms {
			col := k % cols
			row := k / cols
			f := &m.Fine.Cells[i]
			f.X = cc.X - side/2 + (float64(col)+0.5)*side/float64(cols)
			f.Y = cc.Y - side/2 + (float64(row)+0.5)*side/float64(rows)
		}
	}
	m.Fine.ClampToDie()
}
