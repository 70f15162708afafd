// Package wirelength implements the weighted-average (WA) wirelength model
// (Hsu, Chang, Balabanov, DAC 2011) used as the smooth HPWL surrogate in the
// placement objective (paper Sec. II-A), together with its analytic gradient
// and the overflow-driven smoothing-parameter (γ) schedule of ePlace.
//
// Evaluation is net-parallel over the internal/parallel shard layer: each
// shard accumulates its nets' WA total and scatter-adds gradients into a
// shard-private buffer, and the shards are merged in fixed index order —
// so the result is byte-identical for every worker count.
package wirelength

import (
	"math"

	"repro/internal/netlist"
	"repro/internal/parallel"
)

// Model evaluates WA wirelength and its gradient for a fixed design. The
// gamma parameter controls smoothness: WA → HPWL as γ → 0.
type Model struct {
	// Workers caps the goroutines used per evaluation; 0 selects
	// runtime.GOMAXPROCS(0), 1 runs fully serial. Results are
	// byte-identical for any setting (deterministic shard reduction).
	Workers int

	d     *netlist.Design
	gamma float64

	// Per-shard state: gradient accumulators (merged in shard order) and
	// exponential scratch sized to the max net degree.
	shardGrad [][]float64
	shardEx   [parallel.NumShards][]float64
	shardEn   [parallel.NumShards][]float64

	stats parallel.Timing
}

// New creates a WA model with an initial γ proportional to the given
// characteristic length (typically the bin size).
func New(d *netlist.Design, gamma float64) *Model {
	maxDeg := 2
	for i := range d.Nets {
		if deg := d.Nets[i].Degree(); deg > maxDeg {
			maxDeg = deg
		}
	}
	m := &Model{d: d, gamma: gamma}
	m.shardGrad = parallel.NewShards(2 * len(d.Cells))
	for s := 0; s < parallel.NumShards; s++ {
		m.shardEx[s] = make([]float64, maxDeg)
		m.shardEn[s] = make([]float64, maxDeg)
	}
	return m
}

// Gamma returns the current smoothing parameter.
func (m *Model) Gamma() float64 { return m.gamma }

// SetGamma overrides the smoothing parameter directly.
func (m *Model) SetGamma(g float64) { m.gamma = g }

// Stats returns the accumulated wall/busy time of the net-parallel
// evaluations (telemetry: the parallel.wirelength speedup gauge).
func (m *Model) Stats() parallel.Timing { return m.stats }

// UpdateGamma applies the ePlace overflow schedule: γ = base·10^(k·ovf + b)
// with k, b chosen so overflow 1.0 gives 10·base and overflow 0.1 gives
// base/10. Smaller overflow sharpens the model toward HPWL as the placement
// converges.
func (m *Model) UpdateGamma(base, overflow float64) {
	const (
		k = 20.0 / 9.0
		b = -11.0 / 9.0
	)
	m.gamma = base * math.Pow(10, k*overflow+b)
}

// EvaluateWithGrad returns the total weighted WA wirelength and accumulates
// ∂WA/∂(cell center) into grad, which must have length 2·len(cells) and is
// laid out [gx0, gy0, gx1, gy1, ...]. Gradients are accumulated (callers
// zero the slice when they need a fresh gradient); entries for fixed cells
// are accumulated too and it is the caller's choice to ignore them.
//
// Nets are processed shard-parallel; per-cell contributions land in the
// fixed net-index order regardless of the worker count.
func (m *Model) EvaluateWithGrad(grad []float64) float64 {
	d := m.d
	if grad != nil && len(grad) != 2*len(d.Cells) {
		panic("wirelength: gradient length mismatch")
	}
	if grad != nil {
		parallel.ZeroFloats(m.shardGrad)
	}
	var parts [parallel.NumShards]float64
	m.stats.Add(parallel.For(m.Workers, len(d.Nets), func(shard, lo, hi int) {
		var sg []float64
		if grad != nil {
			sg = m.shardGrad[shard]
		}
		coords := m.shardEx[shard]
		expP := m.shardEn[shard]
		var total float64
		for e := lo; e < hi; e++ {
			net := &d.Nets[e]
			if net.Degree() < 2 {
				continue
			}
			w := net.Weight
			if w == 0 {
				w = 1
			}
			total += w * m.netWA(net, sg, w, axisX, coords, expP)
			total += w * m.netWA(net, sg, w, axisY, coords, expP)
		}
		parts[shard] = total
	}))
	if grad != nil {
		parallel.MergeFloats(grad, m.shardGrad)
	}
	return parallel.SumShards(&parts)
}

// Evaluate returns the total WA wirelength without gradients.
func (m *Model) Evaluate() float64 { return m.EvaluateWithGrad(nil) }

type axis int

const (
	axisX axis = iota
	axisY
)

// netWA computes the WA length of one net along one axis and accumulates the
// (weighted) gradient into grad (shard-private; nil skips gradients). The
// max/min-shifted exponentials keep the computation stable for any
// coordinate magnitude. coords and expP are caller-provided scratch sized
// to at least the net degree.
func (m *Model) netWA(net *netlist.Net, grad []float64, w float64, ax axis, coords, expP []float64) float64 {
	d := m.d
	n := len(net.Pins)
	coords = coords[:n]
	for k, pi := range net.Pins {
		p := d.PinPos(pi)
		if ax == axisX {
			coords[k] = p.X
		} else {
			coords[k] = p.Y
		}
	}
	lo, hi := coords[0], coords[0]
	for _, c := range coords[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	g := m.gamma
	// Positive side (max approximation), shifted by hi.
	// Negative side (min approximation), shifted by lo.
	expP = expP[:n]
	var sP, sxP, sN, sxN float64
	for k, c := range coords {
		ep := math.Exp((c - hi) / g)
		en := math.Exp((lo - c) / g)
		expP[k] = ep // store positive exp; negative recomputed below (cheap)
		sP += ep
		sxP += c * ep
		sN += en
		sxN += c * en
	}
	waMax := sxP / sP
	waMin := sxN / sN
	length := waMax - waMin

	if grad != nil {
		for k, pi := range net.Pins {
			c := coords[k]
			ep := expP[k]
			en := math.Exp((lo - c) / g)
			// d(waMax)/dc_k = ep·((1 + c/g)·sP − sxP/g)/sP²
			// d(waMin)/dc_k = en·((1 − c/g)·sN + sxN/g)/sN²
			dMax := ep * ((1+c/g)*sP - sxP/g) / (sP * sP)
			dMin := en * ((1-c/g)*sN + sxN/g) / (sN * sN)
			gv := w * (dMax - dMin)
			ci := d.Pins[pi].Cell
			if ax == axisX {
				grad[2*ci] += gv
			} else {
				grad[2*ci+1] += gv
			}
		}
	}
	return length
}

// GradL1 returns the L1 norm of a gradient vector restricted to movable
// cells; Eq. 10's λ₂ formula uses it.
func GradL1(d *netlist.Design, grad []float64) float64 {
	var s float64
	for i := range d.Cells {
		if !d.Cells[i].Movable() {
			continue
		}
		s += math.Abs(grad[2*i]) + math.Abs(grad[2*i+1])
	}
	return s
}
