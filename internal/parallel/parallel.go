// Package parallel is the placement pipeline's deterministic multi-core
// execution layer: a chunked parallel-for over a FIXED shard decomposition,
// so that every result — including floating-point reductions — is
// byte-identical for any worker count and any goroutine schedule.
//
// The determinism contract rests on two rules:
//
//  1. Work is split into exactly NumShards contiguous chunks whose
//     boundaries depend only on the item count, never on the worker count
//     or on runtime scheduling. Each shard is executed exactly once.
//  2. A kernel that reduces (sums demand maps, scatter-adds gradients,
//     accumulates totals) writes into shard-private state, and the caller
//     merges the shards in ascending shard-index order after For returns.
//     The floating-point summation tree is therefore a pure function of
//     the input size: Workers=1 and Workers=N walk the identical tree.
//
// Kernels whose writes are disjoint per item (one output row per input
// row, one gradient slot per cell) need no shard state at all and are
// bitwise-identical to a plain serial loop by construction.
//
// Workers=1 never spawns a goroutine: the shards run inline, in order, on
// the calling goroutine — serial execution with the same summation tree.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// NumShards is the fixed shard count of every chunked parallel-for. It is
// a property of the algorithm, not of the machine: raising it would change
// the reduction tree (and the low-order float bits of every reduced
// result), so it is a constant rather than a tuning knob. It also caps the
// useful worker count.
const NumShards = 16

// Resolve maps an Options.Workers-style setting to the effective worker
// count: 0 (or negative) selects runtime.GOMAXPROCS(0), the number of CPUs
// the process may run Go code on; the result is clamped to [1, NumShards].
func Resolve(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > NumShards {
		workers = NumShards
	}
	return workers
}

// Range returns the half-open item range [start, end) of one shard for n
// items. Boundaries depend only on n and the shard index.
func Range(shard, n int) (start, end int) {
	return shard * n / NumShards, (shard + 1) * n / NumShards
}

// Timing reports the cost of one or more For calls: Wall is elapsed time,
// Busy is the summed in-shard execution time across workers. Busy/Wall is
// the effective parallelism actually achieved.
type Timing struct {
	Wall time.Duration
	Busy time.Duration
}

// Add accumulates another timing sample into t.
func (t *Timing) Add(u Timing) {
	t.Wall += u.Wall
	t.Busy += u.Busy
}

// Speedup returns the effective parallelism Busy/Wall (1 when no work was
// recorded).
func (t Timing) Speedup() float64 {
	if t.Wall <= 0 || t.Busy <= 0 {
		return 1
	}
	return float64(t.Busy) / float64(t.Wall)
}

// For executes fn once per non-empty shard of the fixed NumShards
// decomposition of [0, n), using at most Resolve(workers) goroutines, and
// returns how long the call took. fn(shard, start, end) must confine its
// writes to shard-private state (indexed by shard) or to locations owned
// by items in [start, end); it must not touch other shards' state.
//
// Shards are handed to workers dynamically (load balancing), which is safe
// under the determinism contract because each shard's result lands in its
// own slot regardless of which worker computed it, or in what order.
func For(workers, n int, fn func(shard, start, end int)) Timing {
	t, _ := ForCtx(context.Background(), workers, n, fn)
	return t
}

// ForCtx is For with cooperative cancellation: the context is checked on
// entry and before every shard claim, and the first non-nil ctx.Err() seen
// is returned. Shards already started always run to completion and every
// worker goroutine is joined before ForCtx returns (no leaks), but on a
// non-nil error an unknown SUBSET of shards has executed — the caller must
// treat every output buffer the kernel wrote as garbage and either discard
// it or rebuild it from scratch. Determinism is unaffected on the nil-error
// path: all shards ran, exactly as For.
func ForCtx(ctx context.Context, workers, n int, fn func(shard, start, end int)) (Timing, error) {
	if n <= 0 {
		return Timing{}, ctx.Err()
	}
	w := Resolve(workers)
	t0 := time.Now()
	if w == 1 {
		for s := 0; s < NumShards; s++ {
			if err := ctx.Err(); err != nil {
				wall := time.Since(t0)
				return Timing{Wall: wall, Busy: wall}, err
			}
			if lo, hi := Range(s, n); lo < hi {
				fn(s, lo, hi)
			}
		}
		wall := time.Since(t0)
		return Timing{Wall: wall, Busy: wall}, nil
	}
	if w > n {
		w = n // never more workers than items
	}
	var next atomic.Int32
	var busy atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	done := ctx.Done()
	var cancelled atomic.Bool
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			g0 := time.Now()
			for {
				if done != nil {
					select {
					case <-done:
						cancelled.Store(true)
						busy.Add(int64(time.Since(g0)))
						return
					default:
					}
				}
				s := int(next.Add(1)) - 1
				if s >= NumShards {
					break
				}
				if lo, hi := Range(s, n); lo < hi {
					fn(s, lo, hi)
				}
			}
			busy.Add(int64(time.Since(g0)))
		}()
	}
	wg.Wait()
	t := Timing{Wall: time.Since(t0), Busy: time.Duration(busy.Load())}
	if cancelled.Load() {
		return t, ctx.Err()
	}
	return t, nil
}

// MergeFloats adds every shard slice into dst elementwise, in ascending
// shard order — the canonical deterministic reduction of scatter-add
// kernels. All slices must have len(dst).
func MergeFloats(dst []float64, shards [][]float64) {
	for _, sh := range shards {
		for i, v := range sh {
			dst[i] += v
		}
	}
}

// ZeroFloats zeroes every shard slice (the per-evaluation reset of shard
// accumulators).
func ZeroFloats(shards [][]float64) {
	for _, sh := range shards {
		for i := range sh {
			sh[i] = 0
		}
	}
}

// NewShards allocates NumShards slices of length n each (shard-private
// accumulator buffers).
func NewShards(n int) [][]float64 {
	out := make([][]float64, NumShards)
	for i := range out {
		out[i] = make([]float64, n)
	}
	return out
}

// SumShards folds per-shard partial sums in ascending shard order.
func SumShards(parts *[NumShards]float64) float64 {
	var s float64
	for _, v := range parts {
		s += v
	}
	return s
}
