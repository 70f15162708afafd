package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// visitOnce runs For over n items and fails unless every item was visited
// exactly once.
func visitOnce(t *testing.T, workers, n int) {
	t.Helper()
	visits := make([]atomic.Int32, n)
	For(workers, n, func(_, start, end int) {
		for i := start; i < end; i++ {
			visits[i].Add(1)
		}
	})
	for i := range visits {
		if v := visits[i].Load(); v != 1 {
			t.Errorf("workers=%d n=%d: item %d visited %d times", workers, n, i, v)
			return
		}
	}
}

// TestConcurrentCallers: eight goroutines share the helpers, each calling
// For repeatedly at its own worker count.
func TestConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				workers := 1 + (g*7+it)%NumShards
				visitOnce(t, workers, 1+(g*131+it*17)%700)
			}
		}(g)
	}
	wg.Wait()
}

// TestNestedFor: a shard body may itself call For; the inner call's
// caller is then a helper or the outer caller, and neither deadlocks.
func TestNestedFor(t *testing.T) {
	const outer, inner = 64, 100
	var sums [outer]atomic.Int64
	For(4, outer, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			For(4, inner, func(_, a, b int) {
				for j := a; j < b; j++ {
					sums[i].Add(int64(j))
				}
			})
		}
	})
	for i := range sums {
		if got := sums[i].Load(); got != inner*(inner-1)/2 {
			t.Fatalf("outer item %d: inner sum %d", i, got)
		}
	}
}

// TestCancelMidCall: a context cancelled while shards run stops further
// claims; every shard that started has finished when ForCtx returns, none
// starts afterwards, and the context's error is returned. Shard 0 (always
// the first claimed) cancels; the others hold their worker until then, so
// each worker starts at most two shards.
func TestCancelMidCall(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, finished atomic.Int32
		_, err := ForCtx(ctx, workers, 1000, func(shard, _, _ int) {
			started.Add(1)
			if shard == 0 {
				cancel()
			}
			<-ctx.Done()
			finished.Add(1)
		})
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		s, f := started.Load(), finished.Load()
		if s != f || s >= NumShards {
			t.Errorf("workers=%d: %d shards started, %d finished at return", workers, s, f)
		}
		time.Sleep(5 * time.Millisecond)
		if late := started.Load(); late != s {
			t.Errorf("workers=%d: %d shards started after return", workers, late-s)
		}
	}
}

// TestOversubscribedWorkersMakeProgress: Workers 4 at GOMAXPROCS 1. The
// caller and three helpers share one processor, and the shard bodies
// yield, so helpers claim shards while the caller runs and the caller
// waits on shards they hold; every call still finishes promptly.
func TestOversubscribedWorkersMakeProgress(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	const calls = 500
	var items atomic.Int64
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		For(4, NumShards, func(_, lo, hi int) {
			runtime.Gosched()
			items.Add(int64(hi - lo))
		})
	}
	if got := items.Load(); got != calls*NumShards {
		t.Fatalf("%d items ran, want %d", got, calls*NumShards)
	}
	if el := time.Since(t0); el > 3*time.Second {
		t.Errorf("%d calls took %v at GOMAXPROCS 1", calls, el)
	}
}

// TestHelpersRetireWhenIdle: helpers started by a call exit once idle for
// idleTimeout, so a process between runs holds no extra goroutines.
func TestHelpersRetireWhenIdle(t *testing.T) {
	waitRetired := func() bool {
		deadline := time.Now().Add(5 * time.Second)
		for helpers.slots.Load() != maxHelpers {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(10 * time.Millisecond)
		}
		return true
	}
	if !waitRetired() {
		t.Fatal("helpers from earlier tests did not retire")
	}
	base := testutil.GoroutineBaseline()
	For(NumShards, 1<<12, func(_, lo, hi int) {
		time.Sleep(100 * time.Microsecond)
	})
	if helpers.slots.Load() == maxHelpers {
		t.Fatal("a 16-worker call started no helper")
	}
	testutil.AssertNoGoroutineLeak(t, base)
	if !waitRetired() {
		t.Errorf("%d helpers still alive", maxHelpers-helpers.slots.Load())
	}
}

// TestHelperParkAllocatesNothing: a helper parks with the timer it made
// when it started, so a cycle of one For at 2 workers and a pause long
// enough for the helper to park allocates only the call record and its
// wake channel. A park that allocated would also show in the allocation
// counts of serial callers in the same process, such as the zero-alloc
// tests of the kernels.
func TestHelperParkAllocatesNothing(t *testing.T) {
	const callAllocs = 2 // the call record and its wake channel
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var sink atomic.Int64
	fn := func(_, lo, hi int) { sink.Add(int64(hi - lo)) }
	cycle := func() {
		For(2, 64, fn)
		time.Sleep(50 * spinWindow)
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		cycle() // a helper exists and has parked once
		if got := testing.AllocsPerRun(20, cycle); got > callAllocs {
			t.Errorf("GOMAXPROCS=%d: a For-and-park cycle allocates %v times, want %d", procs, got, callAllocs)
		}
	}
}
