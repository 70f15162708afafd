package route

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// perturbCells moves roughly a third of the movable cells by up to ±20 DBU in
// each axis — enough that some nets cross G-cell boundaries (dirty) while
// most stay put (clean), exercising the filter+merge path rather than the
// degenerate all-clean or all-dirty cases.
func perturbCells(d *netlist.Design, rng *rand.Rand) {
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Movable() || rng.Intn(3) != 0 {
			continue
		}
		c.X += (rng.Float64() - 0.5) * 40
		c.Y += (rng.Float64() - 0.5) * 40
	}
	d.ClampToDie()
}

// requireSameResult compares two routing results bitwise.
func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.WirelengthDBU) != math.Float64bits(want.WirelengthDBU) {
		t.Fatalf("WL differs: %v vs %v", got.WirelengthDBU, want.WirelengthDBU)
	}
	if got.Vias != want.Vias {
		t.Fatalf("vias differ: %d vs %d", got.Vias, want.Vias)
	}
	for l := range want.Dmd {
		for i := range want.Dmd[l] {
			if math.Float64bits(got.Dmd[l][i]) != math.Float64bits(want.Dmd[l][i]) {
				t.Fatalf("Dmd[%d][%d] differs bitwise: %v vs %v", l, i, got.Dmd[l][i], want.Dmd[l][i])
			}
		}
	}
	for i := range want.Congestion {
		if math.Float64bits(got.Congestion[i]) != math.Float64bits(want.Congestion[i]) {
			t.Fatalf("Congestion[%d] differs bitwise", i)
		}
	}
}

// TestIncrementalMatchesFullDecomposition is the core correctness proof of
// the incremental path: after several placement perturbations, a router that
// updated its cache incrementally must hold a sorted segment list and produce
// a Result byte-identical to a fresh router doing a full decomposition at the
// same positions.
func TestIncrementalMatchesFullDecomposition(t *testing.T) {
	t.Run("mst", func(t *testing.T) {
		d := synth.MustGenerate("tiny_hot")
		g := NewGrid(d, 32)
		inc := NewRouter(d, g)
		inc.Route()
		rng := rand.New(rand.NewSource(3))
		for round := 0; round < 3; round++ {
			perturbCells(d, rng)
			resInc := inc.Route()

			full := NewRouter(d, g)
			resFull := full.Route()

			if len(inc.dc.sorted) != len(full.dc.sorted) {
				t.Fatalf("round %d: incremental holds %d segments, full %d",
					round, len(inc.dc.sorted), len(full.dc.sorted))
			}
			for i := range full.dc.sorted {
				if inc.dc.sorted[i] != full.dc.sorted[i] {
					t.Fatalf("round %d: sorted[%d] differs: %+v vs %+v",
						round, i, inc.dc.sorted[i], full.dc.sorted[i])
				}
			}
			requireSameResult(t, resInc, resFull)
		}
	})
}

// TestIncrementalRouteIdenticalAcrossWorkers replays the same perturbation
// sequence at several worker counts and demands bitwise-identical results —
// the incremental path must not weaken the determinism contract.
func TestIncrementalRouteIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []*Result {
		d := synth.MustGenerate("tiny_hot")
		g := NewGrid(d, 32)
		r := NewRouter(d, g)
		r.Workers = workers
		rng := rand.New(rand.NewSource(5))
		var results []*Result
		for round := 0; round < 3; round++ {
			res := r.Route()
			// Route reuses its Result; snapshot what we compare.
			snap := &Result{
				Grid:          res.Grid,
				WirelengthDBU: res.WirelengthDBU,
				Vias:          res.Vias,
				Congestion:    append([]float64(nil), res.Congestion...),
			}
			snap.Dmd = make([][]float64, len(res.Dmd))
			for l := range res.Dmd {
				snap.Dmd[l] = append([]float64(nil), res.Dmd[l]...)
			}
			results = append(results, snap)
			perturbCells(d, rng)
		}
		return results
	}
	ref := run(1)
	for _, w := range []int{2, 7, 0} {
		got := run(w)
		for round := range ref {
			requireSameResult(t, got[round], ref[round])
		}
	}
}

// TestCacheCountersSteadyState: with unchanged positions every active net is
// a cache hit and none are dirty.
func TestCacheCountersSteadyState(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	r := NewRouter(d, g)
	r.CacheHits = &telemetry.Counter{}
	r.DirtyNets = &telemetry.Counter{}
	active := 0
	for e := range d.Nets {
		if d.Nets[e].Degree() >= 2 {
			active++
		}
	}
	r.Route()
	if got := r.DirtyNets.Value(); got != int64(active) {
		t.Fatalf("first route: %d dirty nets, want all %d active nets", got, active)
	}
	if got := r.CacheHits.Value(); got != 0 {
		t.Fatalf("first route: %d cache hits, want 0", got)
	}
	r.Route()
	if got := r.CacheHits.Value(); got != int64(active) {
		t.Fatalf("second route: %d cache hits, want %d", got, active)
	}
	if got := r.DirtyNets.Value(); got != int64(active) {
		t.Fatalf("second route: dirty total %d, want unchanged %d", got, active)
	}
}

// TestDecompositionSignatureRoundTrip: restoring the serialized signature on
// a fresh router must reproduce the cached segment list exactly, even when
// the design has since moved (the signature, not the live positions, is the
// cache key — this is what checkpoint resume relies on).
func TestDecompositionSignatureRoundTrip(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	r := NewRouter(d, g)
	if sig := r.DecompositionSignature(); sig != nil {
		t.Fatalf("cold router returned a signature of %d pins", len(sig))
	}
	r.Route()
	sig := r.DecompositionSignature()
	if len(sig) != len(d.Pins) {
		t.Fatalf("signature has %d entries, want %d pins", len(sig), len(d.Pins))
	}

	// Move the design away from the snapshot; restore must ignore this.
	r2 := NewRouter(d, g)
	perturbCells(d, rand.New(rand.NewSource(13)))
	if err := r2.RestoreDecomposition(sig); err != nil {
		t.Fatalf("RestoreDecomposition: %v", err)
	}
	if len(r2.dc.sorted) != len(r.dc.sorted) {
		t.Fatalf("restored cache holds %d segments, want %d", len(r2.dc.sorted), len(r.dc.sorted))
	}
	for i := range r.dc.sorted {
		if r2.dc.sorted[i] != r.dc.sorted[i] {
			t.Fatalf("restored sorted[%d] differs: %+v vs %+v", i, r2.dc.sorted[i], r.dc.sorted[i])
		}
	}

	// Malformed signatures are rejected.
	if err := r2.RestoreDecomposition(sig[:1]); err == nil {
		t.Fatalf("short signature accepted")
	}
	bad := append([]int32(nil), sig...)
	bad[0] = int32(g.NX * g.NY)
	if err := r2.RestoreDecomposition(bad); err == nil {
		t.Fatalf("out-of-range G-cell accepted")
	}
}

// TestDirtyNetCountsPinnedTwoCall pins the exact counter arithmetic of the
// canonical two-call scenario: call 1 is a full decomposition (every active
// net dirty, zero hits), then exactly one movable cell crosses a G-cell
// boundary, and call 2 must count each of that cell's nets dirty exactly
// once and every other active net as exactly one hit. A regression that
// double-counts a dirty net, or adds the counters twice per call, shifts
// these totals and fails the pinned equalities. The scenario runs as the
// subtest "nohint": the router sees the move only by re-bucketing pins,
// with no hint of which cells moved.
func TestDirtyNetCountsPinnedTwoCall(t *testing.T) {
	t.Run("nohint", func(t *testing.T) {
		d := synth.MustGenerate("tiny_hot")
		g := NewGrid(d, 32)
		r := NewRouter(d, g)
		r.CacheHits = &telemetry.Counter{}
		r.DirtyNets = &telemetry.Counter{}

		active := 0
		for e := range d.Nets {
			if d.Nets[e].Degree() >= 2 {
				active++
			}
		}

		// Call 1: full decomposition.
		r.Route()
		if got := r.DirtyNets.Value(); got != int64(active) {
			t.Fatalf("call 1: dirty = %d, want all %d active nets", got, active)
		}
		if got := r.CacheHits.Value(); got != 0 {
			t.Fatalf("call 1: hits = %d, want 0", got)
		}

		// Move exactly one movable cell a full G-cell pitch in X, so every
		// one of its pins crosses a boundary and exactly its nets go dirty.
		cell := -1
		for i := range d.Cells {
			if d.Cells[i].Movable() {
				cell = i
				break
			}
		}
		if cell < 0 {
			t.Fatal("design has no movable cell")
		}
		if d.Cells[cell].X+g.CellW < d.Die.Hi.X {
			d.Cells[cell].X += g.CellW
		} else {
			d.Cells[cell].X -= g.CellW
		}
		wantDirty := 0
		for e := range d.Nets {
			net := &d.Nets[e]
			if net.Degree() < 2 {
				continue
			}
			for _, pi := range net.Pins {
				if d.Pins[pi].Cell == cell {
					wantDirty++
					break
				}
			}
		}
		if wantDirty == 0 {
			t.Fatalf("cell %d drives no active net — test is vacuous", cell)
		}
		// Call 2: exactly the moved cell's nets are dirty, once each.
		r.Route()
		if got := r.DirtyNets.Value(); got != int64(active+wantDirty) {
			t.Fatalf("call 2: dirty total = %d, want %d (%d from call 1 + %d nets of the moved cell, each once)",
				got, active+wantDirty, active, wantDirty)
		}
		if got := r.CacheHits.Value(); got != int64(active-wantDirty) {
			t.Fatalf("call 2: hit total = %d, want %d clean nets", got, active-wantDirty)
		}

		// Call 3, nothing moved: hits advance by the full active count and
		// the dirty total must not move at all.
		r.Route()
		if got := r.DirtyNets.Value(); got != int64(active+wantDirty) {
			t.Fatalf("call 3: dirty total moved to %d without any position change, want %d",
				got, active+wantDirty)
		}
		if got := r.CacheHits.Value(); got != int64(2*active-wantDirty) {
			t.Fatalf("call 3: hit total = %d, want %d", got, 2*active-wantDirty)
		}
	})
}
