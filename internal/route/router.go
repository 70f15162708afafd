package route

import (
	"context"
	"math"

	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// chooseBatch is the number of segments whose candidate selection runs
// against one frozen demand snapshot. It is a constant — never derived from
// the worker count — so the batch boundaries, and therefore every routing
// decision, are identical for any Workers setting.
const chooseBatch = 256

// Router performs congestion-aware pattern global routing of a design on a
// Grid. It decomposes each net into two-pin segments with a Prim MST,
// enumerates L- and Z-shape candidates per segment, picks the cheapest under
// a congestion + history cost, and repeats for a few rip-up-and-reroute
// rounds. It is deterministic for a fixed design and placement.
//
// Segments are routed in fixed-size batches: the candidate choice of every
// segment in a batch reads a frozen demand snapshot (and so parallelizes
// over the internal/parallel shard layer with disjoint writes), then the
// chosen patterns are committed serially in segment order. Batch boundaries
// depend only on the segment count, so results are byte-identical for every
// worker count.
//
// The router is built to be called repeatedly on the same design (the
// routability loop routes once per iteration): net decomposition is cached
// incrementally (cache.go), run costs come from per-batch prefix-sum fields
// (costfield.go), and the steady state allocates nothing — all scratch,
// including the returned Result, is router-owned and reused.
type Router struct {
	// Workers caps the goroutines used in the candidate-choice phase; 0
	// selects runtime.GOMAXPROCS(0), 1 runs fully serial. Any setting
	// produces byte-identical routes.
	Workers int

	d *netlist.Design
	g *Grid

	// ZSamples is the number of intermediate positions tried per Z family.
	ZSamples int
	// Rounds is the number of full routing rounds (1 initial + Rounds−1
	// rip-up-and-reroute rounds with history).
	Rounds int
	// UseSteiner decomposes multi-pin nets with the iterated 1-Steiner RSMT
	// heuristic instead of a plain MST, trading decomposition time for
	// shorter trees (an ablation knob; the pattern router of [18] is
	// MST-based).
	UseSteiner bool
	// ViaDemand is the demand charged to a G-cell per bend.
	ViaDemand float64
	// PinVias is the via count charged per pin for layer access.
	PinVias int
	// Trace, when non-nil, receives spans for the net decomposition and
	// each rip-up-and-reroute round.
	Trace *telemetry.Tracer

	// CacheHits and DirtyNets count, per decomposition pass, the nets served
	// from the incremental cache and the nets re-decomposed. Nil-safe: a
	// router without telemetry leaves them nil. The counts are deterministic
	// (independent of workers and of the SetMovedCells hint), so they live
	// in the canonical trace.
	CacheHits *telemetry.Counter
	DirtyNets *telemetry.Counter

	hist   []float64 // accumulated overflow history per G-cell
	dmdH   []float64 // current horizontal wire demand (2-D)
	dmdV   []float64 // current vertical wire demand (2-D)
	dmdVia []float64 // current via demand (2-D)
	capTot []float64 // cached total capacity per G-cell
	hl, vl []int     // cached DirLayers results (assembleResult is hot)

	choices []int32         // per-batch chosen candidate index
	stats   parallel.Timing // accumulated cost of the choice phases
	cfStats parallel.Timing // accumulated cost of the cost-field builds

	cf    costField
	dc    decompCache
	moved []bool  // position-delta hint for the next route call (consumed)
	batch []sseg  // current choice batch (field, so chooseFn needs no closure churn)
	res   *Result // reused result; see Route for the ownership contract

	// Hot-loop worker functions, bound once at construction so the per-batch
	// parallel.For calls allocate no closures.
	chooseFn func(shard, lo, hi int)
	cfRows   func(shard, lo, hi int)
	cfCols   func(shard, lo, hi int)
}

// NewRouter creates a router with the default knobs.
func NewRouter(d *netlist.Design, g *Grid) *Router {
	n := g.NX * g.NY
	r := &Router{
		d:         d,
		g:         g,
		ZSamples:  3,
		Rounds:    2,
		ViaDemand: 0.5,
		PinVias:   2,
		hist:      make([]float64, n),
		dmdH:      make([]float64, n),
		dmdV:      make([]float64, n),
		dmdVia:    make([]float64, n),
		capTot:    make([]float64, n),
		choices:   make([]int32, chooseBatch),
	}
	for i := 0; i < n; i++ {
		r.capTot[i] = g.CapTotal(i)
	}
	r.hl = g.DirLayers(Horizontal)
	r.vl = g.DirLayers(Vertical)
	r.cf.init(g.NX, g.NY)
	r.chooseFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r.choices[i] = int32(r.chooseSegment(r.batch[i].segment))
		}
	}
	r.cfRows = func(_, lo, hi int) {
		nx := r.cf.nx
		for y := lo; y < hi; y++ {
			row := y * nx
			base := y * (nx + 1)
			s := 0.0
			r.cf.rowPS[base] = 0
			for x := 0; x < nx; x++ {
				c := r.cellCost(row + x)
				r.cf.cost[row+x] = c
				s += c
				r.cf.rowPS[base+x+1] = s
			}
		}
	}
	r.cfCols = func(_, lo, hi int) {
		nx, ny := r.cf.nx, r.cf.ny
		for x := lo; x < hi; x++ {
			base := x * (ny + 1)
			s := 0.0
			r.cf.colPS[base] = 0
			for y := 0; y < ny; y++ {
				s += r.cf.cost[y*nx+x]
				r.cf.colPS[base+y+1] = s
			}
		}
	}
	return r
}

// Stats returns the accumulated wall/busy time of the parallel
// candidate-choice phases (telemetry: the parallel.route speedup gauge).
func (r *Router) Stats() parallel.Timing { return r.stats }

// CostFieldStats returns the accumulated wall/busy time of the prefix-sum
// cost-field builds (telemetry: the parallel.route.costfield gauge).
func (r *Router) CostFieldStats() parallel.Timing { return r.cfStats }

// SetMovedCells hands the router a conservative position-delta hint for the
// NEXT route call: a cell not flagged true must not have changed position
// since the previous route call on this router, so none of its pins can
// have crossed a G-cell boundary and nets touching only unflagged cells
// skip the signature check. nil (and any router that is never given a
// hint) means "unknown — check every net". The hint is consumed by one
// route call and is performance-only: routes and the CacheHits/DirtyNets
// counters are identical with or without it.
func (r *Router) SetMovedCells(moved []bool) { r.moved = moved }

// Reset clears the per-call routing state — the rip-up-and-reroute overflow
// history and the demand maps — returning the router to its
// freshly-constructed condition without reallocating any buffer. Route
// calls it on entry, so one Router can be reused across the route
// iterations of a placement run (the routability loop constructs a single
// Router and routes it once per iteration) with results byte-identical to
// constructing a new Router each time. The accumulated Stats timing is
// deliberately kept (cumulative, wall-clock-only telemetry), and so is the
// decomposition cache — it depends only on pin positions, which Reset does
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
// valid until the next Route/RouteContext/RouteWithMaze call on the same
// Router, which overwrites it in place. Callers that need a longer-lived
// snapshot must copy the fields they keep (the placement pipeline consumes
// each result within its route iteration).
func (r *Router) Route() *Result {
	res, _ := r.RouteContext(context.Background())
	return res
}

// RouteContext is Route with cooperative cancellation: the context is
// checked between rip-up rounds and between segment batches, and inside
// the parallel candidate-choice phase. On cancellation it returns
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
			hi := lo + chooseBatch
			if hi > len(segs) {
				hi = len(segs)
			}
			r.batch = segs[lo:hi]
			// The batch's frozen demand snapshot, as O(1) prefix sums.
			r.buildCostField()
			// Choice phase: every segment in the batch reads the same
			// frozen cost field; writes (one choice slot per segment)
			// are disjoint, so any worker count picks the same patterns.
			t, err := parallel.ForCtx(ctx, r.Workers, len(r.batch), r.chooseFn)
			r.stats.Add(t)
			if err != nil {
				rsp.End()
				return nil, err
			}
			// Commit phase: serial, in segment order.
			for i := range r.batch {
				dw, dv := r.commitSegment(r.batch[i].segment, int(r.choices[i]))
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
	vias += r.PinVias * len(r.d.Pins)

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

// runCost sums cellCost over an inclusive horizontal or vertical run — the
// naive O(length) reference for the prefix-sum cost field. The maze fallback
// still prices with it (its demand state is live, not batch-frozen), and the
// cross-check test holds the field to it.
func (r *Router) runCost(x1, y1, x2, y2 int) float64 {
	var c float64
	if y1 == y2 {
		if x2 < x1 {
			x1, x2 = x2, x1
		}
		for x := x1; x <= x2; x++ {
			c += r.cellCost(y1*r.g.NX + x)
		}
	} else {
		if y2 < y1 {
			y1, y2 = y2, y1
		}
		for y := y1; y <= y2; y++ {
			c += r.cellCost(y*r.g.NX + x1)
		}
	}
	return c
}

// addRun commits wire demand along an inclusive run.
func (r *Router) addRun(x1, y1, x2, y2 int) {
	if y1 == y2 {
		if x2 < x1 {
			x1, x2 = x2, x1
		}
		for x := x1; x <= x2; x++ {
			r.dmdH[y1*r.g.NX+x]++
		}
	} else {
		if y2 < y1 {
			y1, y2 = y2, y1
		}
		for y := y1; y <= y2; y++ {
			r.dmdV[y*r.g.NX+x1]++
		}
	}
}

// candidate describes one pattern: up to three runs and its bend G-cells.
type candidate struct {
	runs  [3][4]int // x1,y1,x2,y2; unused runs have negative x1
	nRuns int
	bends [2]int // bend cell indices; -1 when absent
	nBend int
}

func (r *Router) addCandidateRun(c *candidate, x1, y1, x2, y2 int) {
	c.runs[c.nRuns] = [4]int{x1, y1, x2, y2}
	c.nRuns++
}

func (r *Router) addBend(c *candidate, x, y int) {
	c.bends[c.nBend] = y*r.g.NX + x
	c.nBend++
}

// enumerate generates the candidate patterns for a segment: straight runs
// for aligned endpoints, both L-shapes, and ZSamples Z-shapes per family.
func (r *Router) enumerate(s segment, out []candidate) []candidate {
	out = out[:0]
	if s.y1 == s.y2 || s.x1 == s.x2 {
		var c candidate
		r.addCandidateRun(&c, s.x1, s.y1, s.x2, s.y2)
		return append(out, c)
	}
	// L-shapes.
	{
		var c candidate
		r.addCandidateRun(&c, s.x1, s.y1, s.x2, s.y1) // horizontal first
		r.addCandidateRun(&c, s.x2, s.y1, s.x2, s.y2)
		r.addBend(&c, s.x2, s.y1)
		out = append(out, c)
	}
	{
		var c candidate
		r.addCandidateRun(&c, s.x1, s.y1, s.x1, s.y2) // vertical first
		r.addCandidateRun(&c, s.x1, s.y2, s.x2, s.y2)
		r.addBend(&c, s.x1, s.y2)
		out = append(out, c)
	}
	// Z-shapes: horizontal-vertical-horizontal with intermediate column xm,
	// and vertical-horizontal-vertical with intermediate row ym.
	dx := s.x2 - s.x1
	dy := s.y2 - s.y1
	for k := 1; k <= r.ZSamples; k++ {
		frac := float64(k) / float64(r.ZSamples+1)
		xm := s.x1 + int(math.Round(frac*float64(dx)))
		if xm != s.x1 && xm != s.x2 {
			var c candidate
			r.addCandidateRun(&c, s.x1, s.y1, xm, s.y1)
			r.addCandidateRun(&c, xm, s.y1, xm, s.y2)
			r.addCandidateRun(&c, xm, s.y2, s.x2, s.y2)
			r.addBend(&c, xm, s.y1)
			r.addBend(&c, xm, s.y2)
			out = append(out, c)
		}
		ym := s.y1 + int(math.Round(frac*float64(dy)))
		if ym != s.y1 && ym != s.y2 {
			var c candidate
			r.addCandidateRun(&c, s.x1, s.y1, s.x1, ym)
			r.addCandidateRun(&c, s.x1, ym, s.x2, ym)
			r.addCandidateRun(&c, s.x2, ym, s.x2, s.y2)
			r.addBend(&c, s.x1, ym)
			r.addBend(&c, s.x2, ym)
			out = append(out, c)
		}
	}
	return out
}

// chooseSegment picks the cheapest candidate for s against the batch's
// frozen cost field without modifying anything — safe to call concurrently
// for segments of one batch. It returns the candidate index for
// commitSegment. The caller must have built the cost field against the
// current demand state (RouteContext does, at the top of every batch).
func (r *Router) chooseSegment(s segment) int {
	var buf [2 + 2*8]candidate
	cands := r.enumerate(s, buf[:0])
	bestIdx, bestCost := 0, math.Inf(1)
	for i := range cands {
		c := &cands[i]
		cost := 0.0
		for k := 0; k < c.nRuns; k++ {
			run := c.runs[k]
			cost += r.cf.runCost(run[0], run[1], run[2], run[3])
		}
		// Bend cells are visited by two runs; subtract the double count and
		// charge the via instead. The snapshot cost keeps bends and runs on
		// the identical frozen values.
		for k := 0; k < c.nBend; k++ {
			cost -= r.cf.cost[c.bends[k]]
			cost += 2 * r.ViaDemand
		}
		if cost < bestCost {
			bestCost = cost
			bestIdx = i
		}
	}
	return bestIdx
}

// chooseSegmentRef is chooseSegment priced with the naive runCost reference
// against the LIVE demand state. The maze fallback uses it (its demand has
// drifted from whatever cost field was last built); the batched hot path
// never does.
func (r *Router) chooseSegmentRef(s segment) int {
	var buf [2 + 2*8]candidate
	cands := r.enumerate(s, buf[:0])
	bestIdx, bestCost := 0, math.Inf(1)
	for i := range cands {
		c := &cands[i]
		cost := 0.0
		for k := 0; k < c.nRuns; k++ {
			run := c.runs[k]
			cost += r.runCost(run[0], run[1], run[2], run[3])
		}
		for k := 0; k < c.nBend; k++ {
			cost -= r.cellCost(c.bends[k])
			cost += 2 * r.ViaDemand
		}
		if cost < bestCost {
			bestCost = cost
			bestIdx = i
		}
	}
	return bestIdx
}

// commitSegment re-enumerates s, commits the demand of the chosen candidate,
// and returns the routed wirelength in DBU and the via count added. The
// demand increments are exact in float64, so the committed maps carry no
// rounding dependence on the commit grouping.
func (r *Router) commitSegment(s segment, choice int) (float64, int) {
	var buf [2 + 2*8]candidate
	cands := r.enumerate(s, buf[:0])
	best := &cands[choice]
	var wl float64
	for k := 0; k < best.nRuns; k++ {
		run := best.runs[k]
		r.addRun(run[0], run[1], run[2], run[3])
		wl += float64(abs(run[2]-run[0]))*r.g.CellW + float64(abs(run[3]-run[1]))*r.g.CellH
	}
	for k := 0; k < best.nBend; k++ {
		r.dmdVia[best.bends[k]] += r.ViaDemand
	}
	return wl, best.nBend
}
