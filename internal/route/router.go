package route

import (
	"context"
	"math"

	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// chooseBatch is the number of segments whose candidate selection runs
// against one frozen demand snapshot. It is a constant, so the batch
// boundaries, and therefore every routing decision, depend only on the
// segment count.
const chooseBatch = 256

// Fixed pattern-routing knobs.
const (
	zSamples  = 3   // intermediate positions tried per Z family
	viaDemand = 0.5 // demand charged to a G-cell per bend
	pinVias   = 2   // via count charged per pin for layer access
)

// Router performs congestion-aware pattern global routing of a design on a
// Grid. It decomposes each net into two-pin segments with a Prim MST,
// prices the straight, L- and Z-shape patterns of each segment, picks the
// cheapest under a congestion + history cost, and repeats for a few
// rip-up-and-reroute rounds. It is deterministic for a fixed design and
// placement.
//
// Segments are routed in fixed-size batches: every segment in a batch is
// priced against one frozen cost field, and the chosen patterns are
// committed in segment order. Batch boundaries depend only on the segment
// count, and the router runs serially on the calling goroutine.
//
// The router is built to be called repeatedly on the same design (the
// routability loop routes once per iteration): net decomposition is cached
// incrementally (cache.go), run costs come from per-batch prefix-sum fields
// (costfield.go), and the steady state allocates nothing — all scratch,
// including the returned Result, is router-owned and reused.
type Router struct {
	// Workers is ignored: every route call runs serially (DESIGN.md §8
	// records the measurements that retired the parallel cost-field build).
	// The field remains so that callers which set it keep compiling.
	Workers int

	d *netlist.Design
	g *Grid

	// Rounds is the number of full routing rounds (1 initial + Rounds−1
	// rip-up-and-reroute rounds with history).
	Rounds int
	// Trace, when non-nil, receives spans for the net decomposition and
	// each rip-up-and-reroute round.
	Trace *telemetry.Tracer

	// CacheHits and DirtyNets count, per decomposition pass, the nets served
	// from the incremental cache and the nets re-decomposed. Nil-safe: a
	// router without telemetry leaves them nil. The counts are a function of
	// the pin G-cell signatures alone, so they live in the canonical trace.
	CacheHits *telemetry.Counter
	DirtyNets *telemetry.Counter

	hist   []float64 // accumulated overflow history per G-cell
	dmdH   []float64 // current horizontal wire demand (2-D)
	dmdV   []float64 // current vertical wire demand (2-D)
	dmdVia []float64 // current via demand (2-D)
	capTot []float64 // cached total capacity per G-cell
	hl, vl []int     // cached DirLayers results (assembleResult is hot)

	cf  costField
	dc  decompCache
	res *Result // reused result; see Route for the ownership contract
}

// NewRouter creates a router with the default knobs.
func NewRouter(d *netlist.Design, g *Grid) *Router {
	n := g.NX * g.NY
	r := &Router{
		d:      d,
		g:      g,
		Rounds: 2,
		hist:   make([]float64, n),
		dmdH:   make([]float64, n),
		dmdV:   make([]float64, n),
		dmdVia: make([]float64, n),
		capTot: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		r.capTot[i] = g.CapTotal(i)
	}
	r.hl = g.DirLayers(Horizontal)
	r.vl = g.DirLayers(Vertical)
	r.cf.init(g.NX, g.NY)
	return r
}

// Reset clears the per-call routing state — the rip-up-and-reroute overflow
// history and the demand maps — returning the router to its
// freshly-constructed condition without reallocating any buffer. Route
// calls it on entry, so one Router can be reused across the route
// iterations of a placement run (the routability loop constructs a single
// Router and routes it once per iteration) with results byte-identical to
// constructing a new Router each time. The decomposition cache is
// deliberately kept — it depends only on pin positions, which Reset does
// not touch.
func (r *Router) Reset() {
	for i := range r.hist {
		r.hist[i] = 0
		r.dmdH[i] = 0
		r.dmdV[i] = 0
		r.dmdVia[i] = 0
	}
}

// segment is one two-pin connection in G-cell coordinates.
type segment struct {
	x1, y1, x2, y2 int
	lenEst         int // Manhattan estimate for ordering
}

// Route routes every net from the current cell positions and returns the
// demand and congestion maps.
//
// Ownership: the returned Result is router-owned and reused — it stays
// valid until the next Route/RouteContext call on the same Router, which
// overwrites it in place. Callers that need a longer-lived snapshot must
// copy the fields they keep (the placement pipeline consumes each result
// within its route iteration).
func (r *Router) Route() *Result {
	res, _ := r.RouteContext(context.Background())
	return res
}

// RouteContext is Route with cooperative cancellation: the context is
// checked between rip-up rounds and between segment batches. On
// cancellation it returns
// (nil, ctx.Err()) — the router's internal demand state is left partial,
// but Route/RouteContext reset it on entry, so an aborted call has no
// effect on any later call. Routing never mutates the design, so a caller
// observing an error can simply drop the call. The Result ownership
// contract of Route applies.
func (r *Router) RouteContext(ctx context.Context) (*Result, error) {
	sp := r.Trace.Start("route.decompose")
	// Incremental: only nets whose pins crossed a G-cell boundary since the
	// previous call are re-decomposed; the sorted order (short segments
	// first — they have the fewest detour options) is restored by a stable
	// merge instead of a full re-sort.
	r.updateDecomposition()
	segs := r.dc.sorted
	sp.End()

	n := r.g.NX * r.g.NY
	r.Reset()
	var wl float64
	var vias int
	for round := 0; round < r.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rsp := r.Trace.Start("route.round")
		for i := 0; i < n; i++ {
			r.dmdH[i], r.dmdV[i], r.dmdVia[i] = 0, 0, 0
		}
		wl, vias = 0, 0
		for lo := 0; lo < len(segs); lo += chooseBatch {
			if err := ctx.Err(); err != nil {
				rsp.End()
				return nil, err
			}
			// The batch's frozen demand snapshot, as O(1) prefix sums.
			// Pricing reads only the field and committing writes only the
			// demand maps, so each segment is committed as soon as it is
			// priced.
			r.buildCostField()
			batch := segs[lo:min(lo+chooseBatch, len(segs))]
			for i := range batch {
				s := &batch[i].segment
				dw, dv := r.commitSegment(s, r.chooseSegment(s))
				wl += dw
				vias += dv
			}
		}
		if round < r.Rounds-1 {
			// Accumulate overflow history for the next round. A
			// zero-capacity G-cell counts as hard-overflowed (utilization 2,
			// Result.finalize's convention) instead of dividing by zero.
			for i := 0; i < n; i++ {
				dmd := r.dmdH[i] + r.dmdV[i] + r.dmdVia[i]
				var u float64
				if cap := r.capTot[i]; cap > 0 {
					u = dmd / cap
				} else if dmd > 0 {
					u = 2
				}
				if u > 1 {
					r.hist[i] += 2 * (u - 1)
				}
			}
		}
		rsp.End()
	}

	// Pin-access vias.
	vias += pinVias * len(r.d.Pins)

	res := r.assembleResult(wl, vias)
	res.Segments = len(segs)
	res.RoundsRun = r.Rounds
	return res, nil
}

func newSegment(x1, y1, x2, y2 int) segment {
	return segment{x1, y1, x2, y2, abs(x1-x2) + abs(y1-y2)}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// cellCost is the congestion-aware cost of pushing one more track through
// G-cell i: base distance 1 plus a soft overflow penalty plus RRR history.
// A zero-capacity G-cell (fully blocked by a macro) is priced as
// hard-overflowed (utilization 2) rather than dividing by zero, keeping
// every cost finite and the cell maximally unattractive.
func (r *Router) cellCost(i int) float64 {
	u := 2.0
	if cap := r.capTot[i]; cap > 0 {
		u = (r.dmdH[i] + r.dmdV[i] + r.dmdVia[i]) / cap
	}
	c := 1.0 + r.hist[i]
	if u > 0.8 {
		p := u - 0.8
		c += 10*p + 25*p*p
	}
	return c
}

// pattern names the candidate a segment is routed on. Aligned endpoints
// have the straight run only. Otherwise the candidates, in pricing order,
// are the two L-shapes and then, for each Z sample k = 1..zSamples, the
// horizontal-vertical-horizontal Z through column x1+zOffset(k, dx) and the
// vertical-horizontal-vertical Z through row y1+zOffset(k, dy); a Z whose
// middle leg would lie on an endpoint's column or row is skipped.
type pattern uint8

const (
	patStraight pattern = iota
	patLH               // horizontal first, bend at (x2, y1)
	patLV               // vertical first, bend at (x1, y2)
	patZH               // patZH+k−1: horizontal-vertical-horizontal Z, sample k
)

// patZV+k−1 is the vertical-horizontal-vertical Z at sample k.
const patZV = patZH + zSamples

// zOffset is math.Round(k·d/(zSamples+1)) in integers (halves round away
// from zero): the offset of Z sample k along a span of d G-cells.
func zOffset(k, d int) int {
	const q = zSamples + 1
	n := k * d
	if n < 0 {
		return -((-n + q/2) / q)
	}
	return (n + q/2) / q
}

// chooseSegment prices the candidate patterns of s against the batch's
// frozen cost field, in pattern order, and returns the cheapest; a strict <
// keeps the first of equal costs. A candidate's cost is 0 plus each of its
// runs, then per bend the bend cell's cost is subtracted (two runs visit
// it) and 2·viaDemand added. The caller must have built the cost field
// against the current demand state (RouteContext does, at the top of every
// batch).
func (r *Router) chooseSegment(s *segment) pattern {
	x1, y1, x2, y2 := s.x1, s.y1, s.x2, s.y2
	if y1 == y2 || x1 == x2 {
		return patStraight
	}
	f := &r.cf
	nx := f.nx
	best, bestCost := patLH, math.Inf(1)
	c := 0.0
	c += f.hRun(y1, x1, x2)
	c += f.vRun(x2, y1, y2)
	c -= f.cost[y1*nx+x2]
	c += 2 * viaDemand
	if c < bestCost {
		best, bestCost = patLH, c
	}
	c = 0.0
	c += f.vRun(x1, y1, y2)
	c += f.hRun(y2, x1, x2)
	c -= f.cost[y2*nx+x1]
	c += 2 * viaDemand
	if c < bestCost {
		best, bestCost = patLV, c
	}
	dx, dy := x2-x1, y2-y1
	for k := 1; k <= zSamples; k++ {
		if xm := x1 + zOffset(k, dx); xm != x1 && xm != x2 {
			c = 0.0
			c += f.hRun(y1, x1, xm)
			c += f.vRun(xm, y1, y2)
			c += f.hRun(y2, xm, x2)
			c -= f.cost[y1*nx+xm]
			c += 2 * viaDemand
			c -= f.cost[y2*nx+xm]
			c += 2 * viaDemand
			if c < bestCost {
				best, bestCost = patZH+pattern(k-1), c
			}
		}
		if ym := y1 + zOffset(k, dy); ym != y1 && ym != y2 {
			c = 0.0
			c += f.vRun(x1, y1, ym)
			c += f.hRun(ym, x1, x2)
			c += f.vRun(x2, ym, y2)
			c -= f.cost[ym*nx+x1]
			c += 2 * viaDemand
			c -= f.cost[ym*nx+x2]
			c += 2 * viaDemand
			if c < bestCost {
				best, bestCost = patZV+pattern(k-1), c
			}
		}
	}
	return best
}

// commitSegment commits the demand of pattern p of s — its runs in order,
// then its bend vias — and returns the routed wirelength in DBU and the
// via count added. The demand increments are exact in float64, so the
// committed maps carry no rounding dependence on the commit grouping.
func (r *Router) commitSegment(s *segment, p pattern) (float64, int) {
	x1, y1, x2, y2 := s.x1, s.y1, s.x2, s.y2
	nx := r.g.NX
	var wl float64
	switch {
	case p == patStraight:
		if y1 == y2 {
			wl += r.hCommit(y1, x1, x2)
		} else {
			wl += r.vCommit(x1, y1, y2)
		}
		return wl, 0
	case p == patLH:
		wl += r.hCommit(y1, x1, x2)
		wl += r.vCommit(x2, y1, y2)
		r.dmdVia[y1*nx+x2] += viaDemand
		return wl, 1
	case p == patLV:
		wl += r.vCommit(x1, y1, y2)
		wl += r.hCommit(y2, x1, x2)
		r.dmdVia[y2*nx+x1] += viaDemand
		return wl, 1
	case p < patZV:
		xm := x1 + zOffset(int(p-patZH)+1, x2-x1)
		wl += r.hCommit(y1, x1, xm)
		wl += r.vCommit(xm, y1, y2)
		wl += r.hCommit(y2, xm, x2)
		r.dmdVia[y1*nx+xm] += viaDemand
		r.dmdVia[y2*nx+xm] += viaDemand
		return wl, 2
	default:
		ym := y1 + zOffset(int(p-patZV)+1, y2-y1)
		wl += r.vCommit(x1, y1, ym)
		wl += r.hCommit(ym, x1, x2)
		wl += r.vCommit(x2, ym, y2)
		r.dmdVia[ym*nx+x1] += viaDemand
		r.dmdVia[ym*nx+x2] += viaDemand
		return wl, 2
	}
}

// hCommit adds one track of horizontal demand along the inclusive run
// (xa..xb, y) and returns the run's wirelength in DBU.
func (r *Router) hCommit(y, xa, xb int) float64 {
	if xb < xa {
		xa, xb = xb, xa
	}
	row := r.dmdH[y*r.g.NX+xa : y*r.g.NX+xb+1]
	for i := range row {
		row[i]++
	}
	return r.runWL(xb-xa, 0)
}

// vCommit adds one track of vertical demand along the inclusive run
// (x, ya..yb) and returns the run's wirelength in DBU.
func (r *Router) vCommit(x, ya, yb int) float64 {
	if yb < ya {
		ya, yb = yb, ya
	}
	nx := r.g.NX
	for i, end := ya*nx+x, yb*nx+x; i <= end; i += nx {
		r.dmdV[i]++
	}
	return r.runWL(0, yb-ya)
}

// runWL is the wirelength of a run spanning dx columns and dy rows.
func (r *Router) runWL(dx, dy int) float64 {
	return float64(dx)*r.g.CellW + float64(dy)*r.g.CellH
}

// assembleResult converts the router's current 2-D demand into a full Result.
// The Result and its slices are router-owned and refilled in place on every
// call — see Route's ownership contract.
func (r *Router) assembleResult(wl float64, vias int) *Result {
	n := r.g.NX * r.g.NY
	res := r.res
	if res == nil {
		res = &Result{Grid: r.g}
		res.Dmd = make([][]float64, r.g.Layers)
		for l := range res.Dmd {
			res.Dmd[l] = make([]float64, n)
		}
		r.res = res
	}
	res.WirelengthDBU = wl
	res.Vias = vias
	for l := range res.Dmd {
		dl := res.Dmd[l]
		for i := range dl {
			dl[i] = 0
		}
	}
	hl, vl := r.hl, r.vl
	for i := 0; i < n; i++ {
		var hCap, vCap float64
		for _, l := range hl {
			hCap += r.g.Cap[l][i]
		}
		for _, l := range vl {
			vCap += r.g.Cap[l][i]
		}
		for _, l := range hl {
			share := 1.0 / float64(len(hl))
			if hCap > 0 {
				share = r.g.Cap[l][i] / hCap
			}
			res.Dmd[l][i] += r.dmdH[i] * share
		}
		for _, l := range vl {
			share := 1.0 / float64(len(vl))
			if vCap > 0 {
				share = r.g.Cap[l][i] / vCap
			}
			res.Dmd[l][i] += r.dmdV[i] * share
		}
		tot := r.capTot[i]
		for l := 0; l < r.g.Layers; l++ {
			share := 1.0 / float64(r.g.Layers)
			if tot > 0 {
				share = r.g.Cap[l][i] / tot
			}
			res.Dmd[l][i] += r.dmdVia[i] * share
		}
	}
	res.finalize()
	return res
}
