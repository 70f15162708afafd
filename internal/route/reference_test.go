package route

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/netlist"
	"repro/internal/synth"
)

// The router as it was before in-place pattern pricing, the counting-sort
// segment order and the one-pass cost field, kept as the reference those
// must reproduce bit for bit: every pattern as a candidate record, priced
// from a two-pass field, the choice of a whole batch made before any of
// its commits, and the segment order from sort.Slice.

// refCandidate is one pattern: up to three runs and its bend G-cells.
type refCandidate struct {
	runs  [3][4]int // x1,y1,x2,y2
	nRuns int
	bends [2]int // bend cell indices
	nBend int
}

func (c *refCandidate) run(x1, y1, x2, y2 int) {
	c.runs[c.nRuns] = [4]int{x1, y1, x2, y2}
	c.nRuns++
}

func (c *refCandidate) bend(nx, x, y int) {
	c.bends[c.nBend] = y*nx + x
	c.nBend++
}

// refEnumerate lists the candidates of s: the straight run for aligned
// endpoints, else both L-shapes and zSamples Z-shapes per family.
func refEnumerate(nx int, s segment) []refCandidate {
	var out []refCandidate
	if s.y1 == s.y2 || s.x1 == s.x2 {
		var c refCandidate
		c.run(s.x1, s.y1, s.x2, s.y2)
		return append(out, c)
	}
	{
		var c refCandidate
		c.run(s.x1, s.y1, s.x2, s.y1)
		c.run(s.x2, s.y1, s.x2, s.y2)
		c.bend(nx, s.x2, s.y1)
		out = append(out, c)
	}
	{
		var c refCandidate
		c.run(s.x1, s.y1, s.x1, s.y2)
		c.run(s.x1, s.y2, s.x2, s.y2)
		c.bend(nx, s.x1, s.y2)
		out = append(out, c)
	}
	dx := s.x2 - s.x1
	dy := s.y2 - s.y1
	for k := 1; k <= zSamples; k++ {
		frac := float64(k) / float64(zSamples+1)
		xm := s.x1 + int(math.Round(frac*float64(dx)))
		if xm != s.x1 && xm != s.x2 {
			var c refCandidate
			c.run(s.x1, s.y1, xm, s.y1)
			c.run(xm, s.y1, xm, s.y2)
			c.run(xm, s.y2, s.x2, s.y2)
			c.bend(nx, xm, s.y1)
			c.bend(nx, xm, s.y2)
			out = append(out, c)
		}
		ym := s.y1 + int(math.Round(frac*float64(dy)))
		if ym != s.y1 && ym != s.y2 {
			var c refCandidate
			c.run(s.x1, s.y1, s.x1, ym)
			c.run(s.x1, ym, s.x2, ym)
			c.run(s.x2, ym, s.x2, s.y2)
			c.bend(nx, s.x1, ym)
			c.bend(nx, s.x2, ym)
			out = append(out, c)
		}
	}
	return out
}

// refChoose returns the index of the cheapest candidate: 0.0 plus each
// run, then per bend the bend cell's cost subtracted and 2·viaDemand added;
// a strict < keeps the first of equal costs.
func refChoose(cands []refCandidate, runCost func(x1, y1, x2, y2 int) float64, cellCost []float64) int {
	bestIdx, bestCost := 0, math.Inf(1)
	for i := range cands {
		c := &cands[i]
		cost := 0.0
		for k := 0; k < c.nRuns; k++ {
			run := c.runs[k]
			cost += runCost(run[0], run[1], run[2], run[3])
		}
		for k := 0; k < c.nBend; k++ {
			cost -= cellCost[c.bends[k]]
			cost += 2 * viaDemand
		}
		if cost < bestCost {
			bestCost = cost
			bestIdx = i
		}
	}
	return bestIdx
}

// refCommit commits c's runs one G-cell at a time, then its bend vias, and
// returns the routed wirelength and via count.
func refCommit(r *Router, c *refCandidate) (float64, int) {
	var wl float64
	for k := 0; k < c.nRuns; k++ {
		x1, y1, x2, y2 := c.runs[k][0], c.runs[k][1], c.runs[k][2], c.runs[k][3]
		wl += float64(abs(x2-x1))*r.g.CellW + float64(abs(y2-y1))*r.g.CellH
		if y1 == y2 {
			for x := min(x1, x2); x <= max(x1, x2); x++ {
				r.dmdH[y1*r.g.NX+x]++
			}
		} else {
			for y := min(y1, y2); y <= max(y1, y2); y++ {
				r.dmdV[y*r.g.NX+x1]++
			}
		}
	}
	for k := 0; k < c.nBend; k++ {
		r.dmdVia[c.bends[k]] += viaDemand
	}
	return wl, c.nBend
}

// refSorted decomposes every active net of r's design from the current pin
// positions and orders the segments with sort.Slice by (lenEst, net, emit).
func refSorted(r *Router) []sseg {
	r.dc.ensureInit(len(r.d.Pins), len(r.d.Nets), r.g)
	var segs []sseg
	for e := range r.d.Nets {
		net := &r.d.Nets[e]
		if net.Degree() < 2 {
			continue
		}
		r.refreshSignature(net)
		for k, s := range r.decomposeNet(e, nil) {
			segs = append(segs, sseg{s, int32(e), int32(k)})
		}
	}
	sortSlice(segs)
	return segs
}

func sortSlice(segs []sseg) {
	sort.Slice(segs, func(i, j int) bool { return ssegLess(&segs[i], &segs[j]) })
}

// refRoute routes r's design with the reference router on r's own demand
// state and returns r's Result and the segment order it routed.
func refRoute(r *Router) (*Result, []sseg) {
	segs := refSorted(r)
	n := r.g.NX * r.g.NY
	r.Reset()
	var wl float64
	var vias int
	var choices [chooseBatch]int
	for round := 0; round < r.Rounds; round++ {
		for i := 0; i < n; i++ {
			r.dmdH[i], r.dmdV[i], r.dmdVia[i] = 0, 0, 0
		}
		wl, vias = 0, 0
		for lo := 0; lo < len(segs); lo += chooseBatch {
			batch := segs[lo:min(lo+chooseBatch, len(segs))]
			f := buildRefField(r)
			for i := range batch {
				choices[i] = refChoose(refEnumerate(r.g.NX, batch[i].segment), f.runCost, f.cost)
			}
			for i := range batch {
				cands := refEnumerate(r.g.NX, batch[i].segment)
				dw, dv := refCommit(r, &cands[choices[i]])
				wl += dw
				vias += dv
			}
		}
		if round < r.Rounds-1 {
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
	}
	vias += pinVias * len(r.d.Pins)
	return r.assembleResult(wl, vias), segs
}

// requireSameSegments fails unless got and want hold the same segments in
// the same order.
func requireSameSegments(t *testing.T, what string, got, want []sseg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: segment %d is %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// requireSameRoute compares every output of two routes bitwise.
func requireSameRoute(t *testing.T, what string, got, want *Result) {
	t.Helper()
	same := func(name string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d entries, reference %d", what, name, len(a), len(b))
		}
		for i := range b {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, reference %v", what, name, i, a[i], b[i])
			}
		}
	}
	for l := range want.Dmd {
		same("Dmd", got.Dmd[l], want.Dmd[l])
	}
	same("Util", got.Util, want.Util)
	same("Congestion", got.Congestion, want.Congestion)
	if math.Float64bits(got.WirelengthDBU) != math.Float64bits(want.WirelengthDBU) {
		t.Fatalf("%s: WirelengthDBU %v, reference %v", what, got.WirelengthDBU, want.WirelengthDBU)
	}
	if got.Vias != want.Vias {
		t.Fatalf("%s: %d vias, reference %d", what, got.Vias, want.Vias)
	}
}

// TestRouteMatchesReference routes three designs with the router and with
// the reference router and compares demand, utilization, congestion,
// wirelength and vias bitwise, on the initial placement and after two
// rounds of cell moves (which the router takes through its incremental
// merge path). It also holds the router's segment order to the reference's
// sort.Slice order.
func TestRouteMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		design string
		grid   int
		rounds int
	}{
		{"tiny_hot", 32, 2},
		{"tiny_hot", 32, 4},
		{"fft_1", 64, 2},
		{"superblue11_a", 128, 2},
	} {
		d := synth.MustGenerate(tc.design)
		g := NewGrid(d, tc.grid)
		r := NewRouter(d, g)
		r.Rounds = tc.rounds
		rng := rand.New(rand.NewSource(21))
		for step := 0; step < 3; step++ {
			what := fmt.Sprintf("%s/%d rounds/step %d", tc.design, tc.rounds, step)
			got := r.Route()
			ref := NewRouter(d, g)
			ref.Rounds = tc.rounds
			want, order := refRoute(ref)
			requireSameSegments(t, what, r.dc.sorted, order)
			requireSameRoute(t, what, got, want)
			perturbCells(d, rng)
		}
	}
}

// TestPatternPricingMatchesCandidates holds chooseSegment and
// commitSegment to the candidate-array reference on random segments —
// aligned ones, short spans whose Z samples land on an endpoint or repeat,
// and long spans — over cost fields with zero, NaN, tied and random cell
// costs, and with uniform costs whose run sums round, so that candidates
// tie exactly and a reordered operation would break the tie. Each choice is
// compared through its commit: the demand maps, wirelength and via count
// must be bitwise equal.
func TestPatternPricingMatchesCandidates(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	r, ref := NewRouter(d, g), NewRouter(d, g)
	nx, ny := g.NX, g.NY
	rng := rand.New(rand.NewSource(5))
	coord := func(n, near int) int {
		if rng.Intn(2) == 0 {
			return rng.Intn(n)
		}
		return min(max(near+rng.Intn(7)-3, 0), n-1) // short spans
	}
	for trial := 0; trial < 10; trial++ {
		for i := range r.hist {
			// Without demand a cell costs exactly 1 + its history.
			r.dmdH[i], r.dmdV[i], r.dmdVia[i] = 0, 0, 0
			switch trial % 5 {
			case 0: // random costs
				r.hist[i] = rng.Float64() * 3
				r.dmdH[i] = float64(rng.Intn(40))
				r.dmdV[i] = float64(rng.Intn(40))
			case 1: // uniform costs: every L ties, as do the Zs
				r.hist[i] = 0
			case 2: // zero-cost cells among small integer costs
				r.hist[i] = float64(rng.Intn(3) - 1)
			case 3: // NaN cells poison the prefixes of their rows and columns
				r.hist[i] = rng.Float64()
				if rng.Intn(40) == 0 {
					r.hist[i] = math.NaN()
				}
			case 4: // uniform inexact costs: exact ties between sums that round
				r.hist[i] = 0.1
			}
		}
		r.buildCostField()
		f := buildRefField(r)
		copy(ref.dmdH, r.dmdH)
		copy(ref.dmdV, r.dmdV)
		copy(ref.dmdVia, r.dmdVia)
		for k := 0; k < 3000; k++ {
			x1, y1 := rng.Intn(nx), rng.Intn(ny)
			x2, y2 := coord(nx, x1), coord(ny, y1)
			switch rng.Intn(6) {
			case 0:
				y2 = y1
			case 1:
				x2 = x1
			}
			s := newSegment(x1, y1, x2, y2)
			cands := refEnumerate(nx, s)
			wantWL, wantVias := refCommit(ref, &cands[refChoose(cands, f.runCost, f.cost)])
			gotWL, gotVias := r.commitSegment(&s, r.chooseSegment(&s))
			if math.Float64bits(gotWL) != math.Float64bits(wantWL) || gotVias != wantVias {
				t.Fatalf("trial %d segment %+v: wl %v vias %d, reference wl %v vias %d",
					trial, s, gotWL, gotVias, wantWL, wantVias)
			}
		}
		for i := range ref.dmdH {
			if math.Float64bits(r.dmdH[i]) != math.Float64bits(ref.dmdH[i]) ||
				math.Float64bits(r.dmdV[i]) != math.Float64bits(ref.dmdV[i]) ||
				math.Float64bits(r.dmdVia[i]) != math.Float64bits(ref.dmdVia[i]) {
				t.Fatalf("trial %d: demand at G-cell %d differs from the reference", trial, i)
			}
		}
	}
}

// TestZOffsetMatchesMathRound: the integer Z-sample offset equals the
// floating-point math.Round(k/(zSamples+1)·d) the candidates were placed
// with.
func TestZOffsetMatchesMathRound(t *testing.T) {
	for d := -5000; d <= 5000; d++ {
		for k := 1; k <= zSamples; k++ {
			want := int(math.Round(float64(k) / float64(zSamples+1) * float64(d)))
			if got := zOffset(k, d); got != want {
				t.Fatalf("zOffset(%d, %d) = %d, want %d", k, d, got, want)
			}
		}
	}
}

// TestSortByKeyMatchesSortSlice holds the counting sort to sort.Slice by
// (lenEst, net, emit) on lists in (net, emit) order with many equal
// lengths, zero lengths and the longest length the grid allows.
func TestSortByKeyMatchesSortSlice(t *testing.T) {
	var dc decompCache
	const nx, ny = 16, 8
	dc.ensureInit(1, 1, &Grid{NX: nx, NY: ny})
	rng := rand.New(rand.NewSource(9))
	var buf []sseg
	for trial := 0; trial < 50; trial++ {
		var src []sseg
		for e, nets := 0, 1+rng.Intn(200); e < nets; e++ {
			for k, segs := 0, rng.Intn(4); k < segs; k++ {
				var s segment
				switch rng.Intn(4) {
				case 0:
					s = newSegment(3, 3, 3, 3) // lenEst 0
				case 1:
					s = newSegment(0, 0, nx-1, ny-1) // the longest
				default:
					s = newSegment(rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3))
				}
				src = append(src, sseg{s, int32(e), int32(k)})
			}
		}
		want := append([]sseg(nil), src...)
		sortSlice(want)
		buf = dc.sortByKey(buf, src)
		requireSameSegments(t, "sortByKey", buf, want)
	}
}

// TestRestoredOrderMatchesSortSlice: a cache rebuilt from a signature holds
// its segments in the reference's sort.Slice order, with every pin read
// from the signature, not from the moved cells.
func TestRestoredOrderMatchesSortSlice(t *testing.T) {
	d := synth.MustGenerate("fft_1")
	g := NewGrid(d, 64)
	r := NewRouter(d, g)
	r.Route()
	sig := r.DecompositionSignature()
	want := refSorted(NewRouter(d, g))
	perturbCells(d, rand.New(rand.NewSource(4)))
	r2 := NewRouter(d, g)
	if err := r2.RestoreDecomposition(sig); err != nil {
		t.Fatal(err)
	}
	requireSameSegments(t, "restored", r2.dc.sorted, want)
}

// shiftCell moves a cell of d by a full G-cell, so exactly its nets go
// dirty.
func shiftCell(d *netlist.Design, g *Grid, cell int) {
	if d.Cells[cell].X+g.CellW < d.Die.Hi.X {
		d.Cells[cell].X += g.CellW
	} else {
		d.Cells[cell].X -= g.CellW
	}
}

// TestMergeOrderMatchesSortSlice: after a move that dirties a handful of
// nets, the filter-and-merge pass leaves the segments in the reference's
// sort.Slice order.
func TestMergeOrderMatchesSortSlice(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	r := NewRouter(d, g)
	r.Route()
	for i := range d.Cells {
		if d.Cells[i].Movable() && i%97 == 0 {
			shiftCell(d, g, i)
		}
	}
	r.updateDecomposition()
	requireSameSegments(t, "merged", r.dc.sorted, refSorted(NewRouter(d, g)))
}
