package parallel

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1},
		{2, 2},
		{NumShards, NumShards},
		{NumShards + 5, NumShards},
		{-3, clampProcs()},
		{0, clampProcs()},
	}
	for _, c := range cases {
		if got := Resolve(c.in); got != c.want {
			t.Errorf("Resolve(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func clampProcs() int {
	n := runtime.GOMAXPROCS(0)
	if n > NumShards {
		n = NumShards
	}
	return n
}

// TestResolveFollowsGOMAXPROCS: the default worker count is the number of
// CPUs the process may use, not the number the machine has, so a
// GOMAXPROCS=1 run executes the kernels serially.
func TestResolveFollowsGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		if got := Resolve(0); got != procs {
			t.Errorf("Resolve(0) at GOMAXPROCS=%d = %d", procs, got)
		}
	}
}

func TestRangeCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 2, NumShards - 1, NumShards, NumShards + 1, 1000, 12345} {
		covered := 0
		prevEnd := 0
		for s := 0; s < NumShards; s++ {
			lo, hi := Range(s, n)
			if lo != prevEnd {
				t.Fatalf("n=%d shard %d: start %d != previous end %d", n, s, lo, prevEnd)
			}
			if hi < lo {
				t.Fatalf("n=%d shard %d: end %d < start %d", n, s, hi, lo)
			}
			covered += hi - lo
			prevEnd = hi
		}
		if covered != n || prevEnd != n {
			t.Fatalf("n=%d: shards cover %d items ending at %d", n, covered, prevEnd)
		}
	}
}

func TestForVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, NumShards} {
		const n = 1003
		var visits [n]atomic.Int32
		For(workers, n, func(shard, start, end int) {
			for i := start; i < end; i++ {
				visits[i].Add(1)
			}
		})
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestForShardedSumIdenticalAcrossWorkerCounts(t *testing.T) {
	// The canonical reduction pattern: per-shard partial sums folded in
	// shard order must be byte-identical for every worker count.
	const n = 4099
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) * 1e3 // nontrivial float content
	}
	sum := func(workers int) float64 {
		var parts [NumShards]float64
		For(workers, n, func(shard, start, end int) {
			var s float64
			for i := start; i < end; i++ {
				s += vals[i]
			}
			parts[shard] = s
		})
		return SumShards(&parts)
	}
	ref := sum(1)
	for _, w := range []int{2, 3, 4, NumShards, 0} {
		if got := sum(w); math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("workers=%d: sum %v differs from serial %v", w, got, ref)
		}
	}
}

func TestMergeFloatsShardOrder(t *testing.T) {
	shards := NewShards(4)
	for s := range shards {
		for i := range shards[s] {
			shards[s][i] = float64(s + 1)
		}
	}
	dst := make([]float64, 4)
	MergeFloats(dst, shards)
	want := float64(NumShards * (NumShards + 1) / 2)
	for i, v := range dst {
		if v != want {
			t.Fatalf("dst[%d] = %v, want %v", i, v, want)
		}
	}
	ZeroFloats(shards)
	for s := range shards {
		for i, v := range shards[s] {
			if v != 0 {
				t.Fatalf("shard %d[%d] = %v after ZeroFloats", s, i, v)
			}
		}
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	ran := false
	if tm := For(4, 0, func(_, _, _ int) { ran = true }); ran || tm.Wall != 0 {
		t.Errorf("For with n=0 ran work or reported time")
	}
	var count atomic.Int32
	For(8, 1, func(shard, start, end int) {
		count.Add(1)
		if end-start != 1 {
			t.Errorf("single-item shard has range [%d,%d)", start, end)
		}
	})
	if count.Load() != 1 {
		t.Errorf("n=1 executed %d shards, want 1", count.Load())
	}
}

func TestTimingSpeedup(t *testing.T) {
	tm := Timing{}
	if s := tm.Speedup(); s != 1 {
		t.Errorf("zero timing speedup = %v, want 1", s)
	}
	tm = Timing{Wall: 100, Busy: 250}
	if s := tm.Speedup(); s != 2.5 {
		t.Errorf("speedup = %v, want 2.5", s)
	}
	tm.Add(Timing{Wall: 100, Busy: 150})
	if tm.Wall != 200 || tm.Busy != 400 {
		t.Errorf("Add gave %+v", tm)
	}
}
