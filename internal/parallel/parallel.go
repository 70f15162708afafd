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
// Workers=1 never involves another goroutine: the shards run inline, in
// order, on the calling goroutine — serial execution with the same
// summation tree. With more workers the caller claims shards alongside
// process-wide helper goroutines that stay warm between calls (see
// helper), so a call does not pay for starting goroutines.
package parallel

import (
	"context"
	"runtime"
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
// decomposition of [0, n), on the calling goroutine and at most
// Resolve(workers)−1 helpers, and returns how long the call took.
// fn(shard, start, end) must confine its writes to shard-private state
// (indexed by shard) or to locations owned by items in [start, end); it
// must not touch other shards' state.
//
// Shards are handed out dynamically (load balancing), which is safe under
// the determinism contract because each shard's result lands in its own
// slot regardless of which goroutine computed it, or in what order.
func For(workers, n int, fn func(shard, start, end int)) Timing {
	t, _ := ForCtx(context.Background(), workers, n, fn)
	return t
}

// ForCtx is For with cooperative cancellation: the context is checked on
// entry and before every shard claim, and the first non-nil ctx.Err() seen
// is returned. Shards already started always run to completion and every
// helper has left the call before ForCtx returns, but on a non-nil error
// an unknown SUBSET of shards has executed — the caller must treat every
// output buffer the kernel wrote as garbage and either discard it or
// rebuild it in full. Determinism is unaffected on the nil-error path:
// all shards ran, exactly as For.
//
// Workers=1 runs the shards inline, in order. Otherwise the caller offers
// the call to up to w−1 helper goroutines (see helper) and claims shards
// alongside them; helpers are only an acceleration, since the caller alone
// runs every shard that no helper claims.
func ForCtx(ctx context.Context, workers, n int, fn func(shard, start, end int)) (Timing, error) {
	if n <= 0 {
		return Timing{}, ctx.Err()
	}
	w := min(Resolve(workers), n) // never more workers than items
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
	c := &call{fn: fn, n: n, done: ctx.Done(), wake: make(chan struct{}, 1)}
	recruit(c, w-1)
	// A parked helper the tickets woke waits on this processor's run queue,
	// where an idle processor takes tens of µs to steal it; yielding runs it
	// here at once and lets the idle processor pick up the caller.
	runtime.Gosched()
	c.work()
	busy := time.Since(t0)
	c.awaitHelpers()
	t := Timing{Wall: time.Since(t0), Busy: busy + time.Duration(c.busy.Load())}
	if c.cancelled.Load() {
		return t, ctx.Err()
	}
	return t, nil
}

// call is one multi-worker ForCtx invocation. A fresh call is allocated
// per invocation, so a helper that picks up its ticket after the caller
// has returned finds every shard claimed and touches nothing else.
type call struct {
	fn   func(shard, start, end int)
	n    int
	done <-chan struct{} // ctx.Done(); nil when the context cannot end

	next      atomic.Int32 // next shard to claim; ≥ NumShards when none is left
	active    atomic.Int32 // helpers inside work
	busy      atomic.Int64 // helpers' summed time inside work, ns
	cancelled atomic.Bool
	wake      chan struct{} // a token whenever active drops to 0
}

// work claims and runs shards until none is left or the context is done.
func (c *call) work() {
	for {
		if c.done != nil {
			select {
			case <-c.done:
				c.cancelled.Store(true)
				return
			default:
			}
		}
		s := int(c.next.Add(1)) - 1
		if s >= NumShards {
			return
		}
		if lo, hi := Range(s, c.n); lo < hi {
			c.fn(s, lo, hi)
		}
	}
}

// help is a helper's turn on c. active is raised before the first claim,
// so a caller that has seen every shard claimed also sees this helper
// until its shards are done.
func (c *call) help() {
	c.active.Add(1)
	t0 := time.Now()
	c.work()
	c.busy.Add(int64(time.Since(t0)))
	if c.active.Add(-1) == 0 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// awaitHelpers returns once no helper is inside work, so every claimed
// shard has completed. It yields while it waits, for at most spinWindow,
// and then blocks: a helper holding a shard always gets to run, even at
// GOMAXPROCS 1.
func (c *call) awaitHelpers() {
	t0 := time.Now()
	for c.active.Load() != 0 {
		if time.Since(t0) < spinWindow {
			runtime.Gosched()
		} else {
			<-c.wake
		}
	}
}

// Helper goroutines are process-wide. A helper that finishes its turn on a
// call waits for the next ticket: it spins for spinWindow, parks, and
// exits after idleTimeout without one. Both are constants, not options:
// they trade idle CPU for wake-up latency and never change a result.
// spinWindow covers the back-to-back calls inside one kernel (on
// des_perf_1 57% of the gaps between two calls are under 4 µs); a window
// long enough to bridge the gaps between kernels (200 µs) made placement
// slower on a 2-vCPU host, where a spinning vCPU slows the other one's
// serial work. idleTimeout returns the goroutines soon after a run ends.
const (
	spinWindow  = 20 * time.Microsecond
	idleTimeout = 500 * time.Millisecond
	maxHelpers  = NumShards - 1 // no call can use more
)

var helpers struct {
	tickets chan *call   // one ticket per reserved idle helper
	slots   atomic.Int32 // helper goroutines that may still start
	// idle counts the waiting helpers minus the tickets reserved for them;
	// a caller takes one by decrementing it, so a reserved ticket always
	// has a waiting helper to receive it, and the channel never fills.
	idle     atomic.Int32
	spinners atomic.Int32 // waiting helpers that spin rather than park
}

func init() {
	helpers.tickets = make(chan *call, maxHelpers)
	helpers.slots.Store(maxHelpers)
}

// recruit offers c to k helpers: idle ones first, then new ones up to
// maxHelpers. Fewer may come; the caller then runs more shards itself.
func recruit(c *call, k int) {
	for ; k > 0; k-- {
		switch {
		case take(&helpers.idle):
			helpers.tickets <- c
		case take(&helpers.slots):
			go helper(c)
		default:
			return
		}
	}
}

// take decrements v if it is positive and reports whether it did.
func take(v *atomic.Int32) bool {
	for {
		x := v.Load()
		if x <= 0 {
			return false
		}
		if v.CompareAndSwap(x, x-1) {
			return true
		}
	}
}

// helper is the body of a helper goroutine: a turn on c, then one on every
// call whose ticket it receives, until it retires. Its idle timer is made
// once, so a park allocates nothing.
func helper(c *call) {
	idle := time.NewTimer(idleTimeout)
	idle.Stop()
	for c != nil {
		c.help()
		c = nextTicket(idle)
	}
}

// nextTicket waits for a ticket, or returns nil once the helper has been
// idle for idleTimeout and has retired. At most GOMAXPROCS−1 helpers spin
// at a time, so spinning never takes the processor a caller runs on. idle
// is the helper's stopped, drained timer; nextTicket leaves it so.
func nextTicket(idle *time.Timer) *call {
	helpers.idle.Add(1)
	if int(helpers.spinners.Add(1)) < runtime.GOMAXPROCS(0) {
		t0 := time.Now()
		for i := 0; ; i++ {
			select {
			case c := <-helpers.tickets:
				helpers.spinners.Add(-1)
				return c
			default:
			}
			if i%64 == 63 && time.Since(t0) >= spinWindow {
				break
			}
		}
	}
	helpers.spinners.Add(-1)
	idle.Reset(idleTimeout)
	select {
	case c := <-helpers.tickets:
		if !idle.Stop() {
			// It fired while the ticket arrived: drain it, or the next
			// park would wake at once.
			select {
			case <-idle.C:
			default:
			}
		}
		return c
	case <-idle.C:
	}
	if !take(&helpers.idle) {
		// Every waiting helper has a ticket reserved; one is this one's.
		return <-helpers.tickets
	}
	helpers.slots.Add(1)
	return nil
}

// SumShards folds per-shard partial sums in ascending shard order.
func SumShards(parts *[NumShards]float64) float64 {
	var s float64
	for _, v := range parts {
		s += v
	}
	return s
}
