package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number: the median of its samples, their first and
// third quartiles, and the samples. Samples repeat one measurement (one per
// pass, per set-up, ...), so p25–p75 is the run's own noise band. A timing's
// samples are scaled by the yardstick; the times as the clock read them are
// kept beside them.
type metric struct {
	Unit       string    `json:"unit"`
	Value      float64   `json:"value"`
	P25        float64   `json:"p25"`
	P75        float64   `json:"p75"`
	N          int       `json:"n"`
	Samples    []float64 `json:"samples"`
	RawValue   float64   `json:"raw_value,omitempty"`
	RawSamples []float64 `json:"raw_samples,omitempty"`
}

func newMetric(unit string, samples ...float64) metric {
	p25, p50, p75 := quartiles(samples)
	return metric{Unit: unit, Value: p50, P25: p25, P75: p75, N: len(samples), Samples: samples}
}

// newTiming is a timing metric: its samples scaled by the yardstick, and the
// same samples unscaled.
func newTiming(unit string, samples, raw []float64) metric {
	m := newMetric(unit, samples...)
	m.RawValue, m.RawSamples = median(raw), raw
	return m
}

// spread is the p25–p75 distance as a share of the median.
func (m metric) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.P75 - m.P25) / math.Abs(m.Value)
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here match the ones computed over the results files. One
// sample is its own quartiles; no samples give zeros.
func quartiles(xs []float64) (p25, p50, p75 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// geomean is the geometric mean of positive values (0 if any is not).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeCalls times fn(k) for each of kinds settings, alternating the settings
// call by call so that host drift hits all alike, and returns each setting's
// median duration over up to calls calls. It stops early once budget is
// spent, but never before three calls of each. prep, when non-nil, runs
// untimed before every call (zeroing an accumulator, say).
func timeCalls(calls int, budget time.Duration, kinds int, prep func(), fn func(k int)) []time.Duration {
	ds := make([][]float64, kinds)
	start := time.Now()
	for i := 0; i < calls; i++ {
		if i >= 3 && time.Since(start) > budget {
			break
		}
		for k := range ds {
			if prep != nil {
				prep()
			}
			t := time.Now()
			fn(k)
			ds[k] = append(ds[k], float64(time.Since(t)))
		}
	}
	out := make([]time.Duration, kinds)
	for k := range ds {
		out[k] = time.Duration(median(ds[k]))
	}
	return out
}
