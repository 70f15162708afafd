package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The measurement host shares its cores with other tenants, and the speed it
// gives a compute-bound thread drifts by up to 3× over periods of seconds to
// minutes, while a memory-latency-bound loop hardly moves. A fixed placement
// timed back to back in one process spread 20–45% (p25–p75 over the median)
// within six minutes, and each timing was strongly correlated with the last.
//
// So every timed operation is bracketed by a yardstick: a fixed CPU workload
// of the benchmark's own code, run just before and just after it on as many
// goroutines as the operation has workers. Its mix (a float sort, an exp-
// weighted sum, a scatter-add into a grid) is the placer's kernels' mix; the
// three together tracked the host better than any one of them. An
// operation's time is reported scaled by yardstickRef over the mean of the
// two yardstick times: the seconds it would have taken on the same host in a
// period where the yardstick takes yardstickRef. The yardstick is the
// benchmark's code, not the program's, so a change to the program moves the
// scaled time and the host's drift does not. What scaling leaves is noise
// from one job to the next, about 10% per job and uncorrelated in time,
// which the number of jobs in a run averages out: over the six minutes
// above, the scaled times of 30-second windows spread 5–8% instead of
// 31–45%.

// yardstickRef is the yardstick's time at one goroutine in the fastest
// periods of the measurement host (see README.md, "Measurements").
const yardstickRef = 50 * time.Millisecond

// A measurement repeats the workload yardRounds times: three rounds (50 ms
// in a fast period), with the heap collected first, tracked the host's speed
// better than one.
const (
	yardRounds   = 3
	yardSortN    = 100_000
	yardVecN     = 200_000
	yardGridSide = 256
)

// yardstick holds the shared read-only inputs and one scratch lane per
// goroutine, so a measurement allocates nothing.
type yardstick struct {
	rounds int
	xs     []float64
	v      []float64
	idx    []int32
	lanes  []*yardLane
}

type yardLane struct {
	buf  []float64
	grid []float64
	sink float64
}

// newYardstick returns a yardstick that repeats its workload rounds times
// per measurement.
func newYardstick(rounds int) *yardstick {
	rng := rand.New(rand.NewSource(1))
	y := &yardstick{rounds: rounds, xs: make([]float64, yardSortN), v: make([]float64, yardVecN), idx: make([]int32, yardVecN)}
	for i := range y.xs {
		y.xs[i] = rng.Float64()
	}
	for i := range y.v {
		y.v[i] = rng.Float64()*20 - 10
		y.idx[i] = int32(rng.Intn(yardGridSide * yardGridSide))
	}
	return y
}

func (y *yardstick) lane(i int) *yardLane {
	for len(y.lanes) <= i {
		y.lanes = append(y.lanes, &yardLane{buf: make([]float64, yardSortN), grid: make([]float64, yardGridSide*yardGridSide)})
	}
	return y.lanes[i]
}

func (y *yardstick) work(l *yardLane) {
	copy(l.buf, y.xs)
	sort.Float64s(l.buf)
	var a, b float64
	for r := 0; r < 3; r++ {
		for _, x := range y.v {
			e := math.Exp(x * 0.3)
			a += e
			b += x * e
		}
	}
	clear(l.grid)
	for r := 0; r < 5; r++ {
		for i, k := range y.idx {
			l.grid[k] += y.v[i]
		}
	}
	l.sink += l.buf[10] + b/a + l.grid[7]
}

// measure runs the yardstick on n goroutines at once and returns the time
// until the last one finished. The heap is collected first, so the garbage
// of the operation just timed does not slow the yardstick down.
func (y *yardstick) measure(n int) time.Duration {
	lanes := make([]*yardLane, n)
	for i := range lanes {
		lanes[i] = y.lane(i)
	}
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for _, l := range lanes[1:] {
		wg.Add(1)
		go func(l *yardLane) {
			defer wg.Done()
			y.run(l)
		}(l)
	}
	y.run(lanes[0])
	wg.Wait()
	return time.Since(start)
}

func (y *yardstick) run(l *yardLane) {
	for r := 0; r < y.rounds; r++ {
		y.work(l)
	}
}

// bracket runs op(0) … op(count-1) in order with the yardstick at n
// goroutines before the first, between each two and after the last, and
// returns each op's scale: yardstickRef over the mean of its two yardstick
// times. A duration an op measured, times its scale, is its scaled time.
func (y *yardstick) bracket(n, count int, op func(i int)) []float64 {
	scales := make([]float64, count)
	before := y.measure(n)
	for i := 0; i < count; i++ {
		op(i)
		after := y.measure(n)
		scales[i] = 2 * float64(yardstickRef) / float64(before+after)
		before = after
	}
	return scales
}

// scaled returns d times scale, in seconds.
func scaled(d time.Duration, scale float64) float64 { return d.Seconds() * scale }
