package route

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/netlist"
)

// Incremental net decomposition.
//
// Decomposing a net into two-pin segments depends on the placement only
// through the G-cell each pin lands in (decompose reads nothing but
// g.CellAt(PinPos)). The router therefore caches, per net, the segment list
// from the last decomposition, keyed by the net's pin G-cell signature; a
// route call re-decomposes only the nets whose signature changed since the
// previous call — across the routability loop's iterations cells move a
// fraction of a G-cell per iteration, so most nets are clean.
//
// Ordering contract: the historical full decomposition emitted segments in
// (net, emission) order and then stable-sorted by lenEst, which is exactly a
// sort by the key (lenEst, net, emit) — the key is unique per segment. The
// incremental path preserves that order with a filter + sorted merge:
// surviving segments of clean nets are a subsequence of the previous sorted
// list (order preserved), fresh segments of dirty nets are sorted by the
// same key, and a single merge pass restores the total order. The result is
// byte-identical to a full decomposition followed by the stable sort
// (proven by TestIncrementalMatchesFullDecomposition). Fresh segments are
// appended in (net, emit) order, so a stable counting sort on lenEst alone
// puts them in key order.

// sseg is a segment in the router's sorted working list together with its
// canonical sort key components (lenEst lives in the embedded segment).
type sseg struct {
	segment
	net  int32 // owning net index
	emit int32 // emission position within the net's segment list
}

// ssegLess orders by the canonical key (lenEst, net, emit).
func ssegLess(a, b *sseg) bool {
	if a.lenEst != b.lenEst {
		return a.lenEst < b.lenEst
	}
	if a.net != b.net {
		return a.net < b.net
	}
	return a.emit < b.emit
}

// decompCache holds the per-net segment cache plus every scratch buffer the
// decomposition needs, so the steady state (no dirty nets) allocates
// nothing.
type decompCache struct {
	valid bool
	// pinCell[pi] is the G-cell index of pin pi at the last decomposition —
	// the cache key. It is the only state needed to reconstruct the whole
	// cache (checkpoints serialize it; see RestoreDecomposition).
	pinCell []int32

	netSegs [][]segment // per-net cached two-pin segments (reused capacity)

	sorted []sseg // all segments ordered by (lenEst, net, emit)
	fresh  []sseg // this call's re-decomposed segments, in (net, emit) order
	keyed  []sseg // fresh in key order, for the merge pass
	// lenCount is the counting sort's histogram, one slot per possible
	// lenEst (0 .. NX+NY−2) plus one.
	lenCount []int32

	dirty     []bool  // per-net flag for the merge pass's filter
	dirtyList []int32 // nets flagged dirty, to clear the flags afterwards

	// Point-collection scratch: epoch-stamped visited marks per G-cell give
	// O(1) duplicate detection while preserving first-seen order (the order
	// the historical map-based dedup produced).
	seenEpoch  []int64
	epoch      int64
	ptsX, ptsY []int32

	// Prim MST scratch, sized to the largest net degree seen.
	inTree       []bool
	dist, parent []int
}

func (dc *decompCache) ensureInit(numPins, numNets int, g *Grid) {
	if dc.pinCell != nil {
		return
	}
	dc.pinCell = make([]int32, numPins)
	dc.netSegs = make([][]segment, numNets)
	dc.dirty = make([]bool, numNets)
	dc.seenEpoch = make([]int64, g.NX*g.NY)
	dc.lenCount = make([]int32, g.NX+g.NY)
}

// sortByKey returns src in (lenEst, net, emit) order, written over dst's
// storage (grown as needed). src must be in (net, emit) order, so a stable
// counting sort on lenEst suffices.
func (dc *decompCache) sortByKey(dst, src []sseg) []sseg {
	cnt := dc.lenCount
	clear(cnt)
	for i := range src {
		cnt[src[i].lenEst+1]++
	}
	for l := 1; l < len(cnt); l++ {
		cnt[l] += cnt[l-1]
	}
	dst = slices.Grow(dst[:0], len(src))[:len(src)]
	for i := range src {
		l := src[i].lenEst
		dst[cnt[l]] = src[i]
		cnt[l]++
	}
	return dst
}

// updateDecomposition brings the cache in sync with the current pin
// positions: detects dirty nets, re-decomposes exactly those, and restores
// the sorted working list. On the first call (or after Invalidate) every
// net is dirty and the path degenerates to a full decomposition + sort.
func (r *Router) updateDecomposition() {
	dc := &r.dc
	dc.ensureInit(len(r.d.Pins), len(r.d.Nets), r.g)
	full := !dc.valid
	clean, dirtyN := 0, 0
	dc.fresh = dc.fresh[:0]
	dc.dirtyList = dc.dirtyList[:0]
	for e := range r.d.Nets {
		net := &r.d.Nets[e]
		if net.Degree() < 2 {
			continue
		}
		changed := r.refreshSignature(net)
		if !full && !changed {
			clean++
			continue
		}
		dirtyN++
		dc.dirty[e] = true
		dc.dirtyList = append(dc.dirtyList, int32(e))
		dc.netSegs[e] = r.decomposeNet(e, dc.netSegs[e][:0])
		for k := range dc.netSegs[e] {
			dc.fresh = append(dc.fresh, sseg{dc.netSegs[e][k], int32(e), int32(k)})
		}
	}
	// Counter invariant: exactly one Add per counter per route call, and every
	// active net lands in exactly one of the two buckets. Both counters feed
	// the canonical trace; the arithmetic is pinned by
	// TestDirtyNetCountsPinnedTwoCall.
	r.CacheHits.Add(int64(clean))
	r.DirtyNets.Add(int64(dirtyN))
	dc.valid = true
	if dirtyN == 0 {
		return
	}
	if full {
		dc.sorted = dc.sortByKey(dc.sorted, dc.fresh)
	} else {
		dc.keyed = dc.sortByKey(dc.keyed, dc.fresh)
		// Filter the previous sorted list down to clean nets (an
		// order-preserving subsequence) while merging the fresh sorted runs
		// in by the canonical key. The result goes to fresh's storage (keyed
		// now holds its content), and the old sorted list's storage becomes
		// the next call's fresh.
		dst := dc.fresh[:0]
		fi := 0
		for i := range dc.sorted {
			s := &dc.sorted[i]
			if dc.dirty[s.net] {
				continue
			}
			for fi < len(dc.keyed) && ssegLess(&dc.keyed[fi], s) {
				dst = append(dst, dc.keyed[fi])
				fi++
			}
			dst = append(dst, *s)
		}
		dst = append(dst, dc.keyed[fi:]...)
		dc.sorted, dc.fresh = dst, dc.sorted
	}
	for _, e := range dc.dirtyList {
		dc.dirty[e] = false
	}
}

// refreshSignature recomputes the net's pin G-cells into the signature and
// reports whether any of them changed.
func (r *Router) refreshSignature(net *netlist.Net) bool {
	changed := false
	for _, pi := range net.Pins {
		p := r.d.PinPos(pi)
		cx, cy := r.g.CellAt(p.X, p.Y)
		q := int32(cy*r.g.NX + cx)
		if r.dc.pinCell[pi] != q {
			r.dc.pinCell[pi] = q
			changed = true
		}
	}
	return changed
}

// decomposeNet converts net e into two-pin segments, appending to out and
// returning it. The pin G-cells are read from the signature (dc.pinCell),
// which the caller has already refreshed — this is what lets a checkpoint
// restore rebuild the cache from the serialized signature alone. The
// emission order is byte-identical to the historical full decomposition:
// first-seen point dedup over the net's pin order, then the identical Prim
// MST edge emission.
func (r *Router) decomposeNet(e int, out []segment) []segment {
	dc := &r.dc
	net := &r.d.Nets[e]
	nx := int32(r.g.NX)
	dc.epoch++
	dc.ptsX = dc.ptsX[:0]
	dc.ptsY = dc.ptsY[:0]
	for _, pi := range net.Pins {
		q := dc.pinCell[pi]
		if dc.seenEpoch[q] == dc.epoch {
			continue
		}
		dc.seenEpoch[q] = dc.epoch
		dc.ptsX = append(dc.ptsX, q%nx)
		dc.ptsY = append(dc.ptsY, q/nx)
	}
	k := len(dc.ptsX)
	if k < 2 {
		return out
	}
	if k == 2 {
		return append(out, newSegment(int(dc.ptsX[0]), int(dc.ptsY[0]), int(dc.ptsX[1]), int(dc.ptsY[1])))
	}
	// Prim MST on Manhattan distance, identical tie-breaking to the
	// historical slice-allocating version (strict < keeps the earliest
	// index on equal distances).
	if cap(dc.inTree) < k {
		dc.inTree = make([]bool, k)
		dc.dist = make([]int, k)
		dc.parent = make([]int, k)
	}
	inTree, dist, parent := dc.inTree[:k], dc.dist[:k], dc.parent[:k]
	for i := 0; i < k; i++ {
		inTree[i] = false
		dist[i] = math.MaxInt32
		parent[i] = -1
	}
	dist[0] = 0
	for iter := 0; iter < k; iter++ {
		best, bd := -1, math.MaxInt32
		for i := 0; i < k; i++ {
			if !inTree[i] && dist[i] < bd {
				best, bd = i, dist[i]
			}
		}
		inTree[best] = true
		if p := parent[best]; p >= 0 {
			out = append(out, newSegment(int(dc.ptsX[p]), int(dc.ptsY[p]), int(dc.ptsX[best]), int(dc.ptsY[best])))
		}
		for i := 0; i < k; i++ {
			if inTree[i] {
				continue
			}
			d := int(abs32(dc.ptsX[i]-dc.ptsX[best])) + int(abs32(dc.ptsY[i]-dc.ptsY[best]))
			if d < dist[i] {
				dist[i] = d
				parent[i] = best
			}
		}
	}
	return out
}

func abs32(a int32) int32 {
	if a < 0 {
		return -a
	}
	return a
}

// Invalidate discards the decomposition cache: the next route call performs
// a full decomposition (counting every active net as dirty), exactly as a
// freshly constructed Router would. Reset deliberately does NOT invalidate —
// the cache is a pure function of pin positions, not of demand state.
func (r *Router) Invalidate() { r.dc.valid = false }

// DecompositionSignature returns a copy of the per-pin G-cell signature the
// cache is keyed on, or nil when the cache is cold. Checkpoints store it so
// a resumed run rebuilds an identical cache and the cache-hit/dirty-net
// counters continue exactly as in an uninterrupted run.
func (r *Router) DecompositionSignature() []int32 {
	if !r.dc.valid {
		return nil
	}
	return append([]int32(nil), r.dc.pinCell...)
}

// RestoreDecomposition rebuilds the decomposition cache from a serialized
// signature: every net is decomposed from the stored pin G-cells (not the
// current positions) and the sorted working list is rebuilt, leaving the
// router in the exact state it was in when DecompositionSignature was
// called. The telemetry counters are not touched.
func (r *Router) RestoreDecomposition(sig []int32) error {
	if len(sig) != len(r.d.Pins) {
		return fmt.Errorf("route: signature has %d pins, design has %d", len(sig), len(r.d.Pins))
	}
	n := int32(r.g.NX * r.g.NY)
	for _, q := range sig {
		if q < 0 || q >= n {
			return fmt.Errorf("route: signature G-cell %d outside %dx%d grid", q, r.g.NX, r.g.NY)
		}
	}
	dc := &r.dc
	dc.ensureInit(len(r.d.Pins), len(r.d.Nets), r.g)
	copy(dc.pinCell, sig)
	dc.fresh = dc.fresh[:0]
	for e := range r.d.Nets {
		if r.d.Nets[e].Degree() < 2 {
			continue
		}
		dc.netSegs[e] = r.decomposeNet(e, dc.netSegs[e][:0])
		for k := range dc.netSegs[e] {
			dc.fresh = append(dc.fresh, sseg{dc.netSegs[e][k], int32(e), int32(k)})
		}
	}
	dc.sorted = dc.sortByKey(dc.sorted, dc.fresh)
	dc.valid = true
	return nil
}
