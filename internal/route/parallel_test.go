package route

import (
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/synth"
)

// TestRouteBitwiseIdenticalAcrossWorkers: the router runs serially and
// ignores Workers, so demand maps, congestion and totals must be bit-for-bit
// identical for every setting.
func TestRouteBitwiseIdenticalAcrossWorkers(t *testing.T) {
	d := synth.MustGenerate("tiny_hot")
	g := NewGrid(d, 32)
	run := func(workers int) *Result {
		r := NewRouter(d, g)
		r.Workers = workers
		return r.Route()
	}
	ref := run(1)
	for _, w := range []int{2, 3, parallel.NumShards, 0} {
		got := run(w)
		if math.Float64bits(got.WirelengthDBU) != math.Float64bits(ref.WirelengthDBU) {
			t.Errorf("workers=%d: WL %v != serial %v", w, got.WirelengthDBU, ref.WirelengthDBU)
		}
		if got.Vias != ref.Vias || got.OverflowCells != ref.OverflowCells {
			t.Errorf("workers=%d: vias/overflow differ from serial", w)
		}
		for i := range ref.Congestion {
			if math.Float64bits(got.Congestion[i]) != math.Float64bits(ref.Congestion[i]) {
				t.Fatalf("workers=%d: congestion[%d] differs bitwise from serial", w, i)
			}
		}
		for l := range ref.Dmd {
			for i := range ref.Dmd[l] {
				if math.Float64bits(got.Dmd[l][i]) != math.Float64bits(ref.Dmd[l][i]) {
					t.Fatalf("workers=%d: demand[%d][%d] differs bitwise from serial", w, l, i)
				}
			}
		}
	}
}
