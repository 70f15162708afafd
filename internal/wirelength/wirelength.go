// Package wirelength implements the weighted-average (WA) wirelength model
// (Hsu, Chang, Balabanov, DAC 2011) used as the smooth HPWL surrogate in the
// placement objective (paper Sec. II-A), together with its analytic gradient
// and the overflow-driven smoothing-parameter (γ) schedule of ePlace.
//
// Evaluation is net-parallel over the internal/parallel shard layer: each
// shard accumulates its nets' WA total and writes every pin's gradient into
// that pin's own slot, and a per-cell gather then sums the slots in the
// fixed shard tree — so the result is byte-identical for every worker count.
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

	// Per-pin gradient slots: net e's pin k owns slot netStart[e]+k, which
	// holds its weighted [gx, gy] at slot[2·s], slot[2·s+1]. Only the shard
	// that owns net e writes them, so the net pass needs no merge.
	netStart []int32
	slot     []float64

	// The pins in slot order, built once by New: slot s's pin sits on cell
	// pinCell[s] at offset (pinOff[2·s], pinOff[2·s+1]). The net pass reads
	// the cell positions from the design on every call, since the placer
	// moves cells between calls.
	pinCell []int32
	pinOff  []float64

	// Per-cell gather, built once by New. Cell c's slots, in ascending slot
	// (= net, then pin) order, are split into runs by the shard of their
	// net: run r covers gatherSlot[runEnd[r-1]:runEnd[r]], and cell c owns
	// runs [cellRun[c], cellRun[c+1]).
	gatherSlot []int32
	runEnd     []int32
	cellRun    []int32

	// Per-shard scratch sized to the max net degree: pin coordinates and
	// the max/min-side exponentials of one axis.
	shardX, shardY [parallel.NumShards][]float64
	shardEp        [parallel.NumShards][]float64
	shardEn        [parallel.NumShards][]float64

	stats parallel.Timing
}

// New creates a WA model with an initial γ proportional to the given
// characteristic length (typically the bin size).
func New(d *netlist.Design, gamma float64) *Model {
	maxDeg := 2
	m := &Model{d: d, gamma: gamma, netStart: make([]int32, len(d.Nets)+1)}
	for e := range d.Nets {
		deg := d.Nets[e].Degree()
		maxDeg = max(maxDeg, deg)
		m.netStart[e+1] = m.netStart[e] + int32(deg)
	}
	nSlots := m.netStart[len(d.Nets)]
	m.slot = make([]float64, 2*nSlots)
	m.pinCell = make([]int32, nSlots)
	m.pinOff = make([]float64, 2*nSlots)
	for e := range d.Nets {
		for k, pi := range d.Nets[e].Pins {
			s, pin := m.netStart[e]+int32(k), &d.Pins[pi]
			m.pinCell[s] = int32(pin.Cell)
			m.pinOff[2*s], m.pinOff[2*s+1] = pin.OffX, pin.OffY
		}
	}
	for s := 0; s < parallel.NumShards; s++ {
		m.shardX[s] = make([]float64, maxDeg)
		m.shardY[s] = make([]float64, maxDeg)
		m.shardEp[s] = make([]float64, maxDeg)
		m.shardEn[s] = make([]float64, maxDeg)
	}
	m.buildGather()
	return m
}

// buildGather indexes every gradient-carrying pin slot by its cell; nets of
// degree < 2 carry no gradient and are left out. Pass 0 counts each cell's
// slots and runs, pass 1 fills them. Nets are walked in ascending order, so
// a cell's slots come out ascending and each shard yields one run per cell.
func (m *Model) buildGather() {
	d := m.d
	n := len(d.Cells)
	slotStart := make([]int32, n+1)
	m.cellRun = make([]int32, n+1)
	lastShard := make([]int, n)
	var slotPos, runPos []int32
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			for c := 0; c < n; c++ {
				slotStart[c+1] += slotStart[c]
				m.cellRun[c+1] += m.cellRun[c]
			}
			m.gatherSlot = make([]int32, slotStart[n])
			m.runEnd = make([]int32, m.cellRun[n])
			slotPos = append([]int32(nil), slotStart[:n]...)
			runPos = append([]int32(nil), m.cellRun[:n]...)
		}
		for c := range lastShard {
			lastShard[c] = -1
		}
		for s := 0; s < parallel.NumShards; s++ {
			lo, hi := parallel.Range(s, len(d.Nets))
			for e := lo; e < hi; e++ {
				net := &d.Nets[e]
				if net.Degree() < 2 {
					continue
				}
				for k, pi := range net.Pins {
					c := d.Pins[pi].Cell
					newRun := lastShard[c] != s
					lastShard[c] = s
					if pass == 0 {
						slotStart[c+1]++
						if newRun {
							m.cellRun[c+1]++
						}
						continue
					}
					m.gatherSlot[slotPos[c]] = m.netStart[e] + int32(k)
					slotPos[c]++
					if newRun {
						runPos[c]++
					}
					m.runEnd[runPos[c]-1] = slotPos[c]
				}
			}
		}
	}
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
// Nets are processed shard-parallel into per-pin slots; the gather then
// adds to each cell, per shard in ascending order, that shard's slots
// summed from +0 in net order — the summation tree of a scatter into
// zeroed per-shard buffers merged in shard order. A shard holding none of
// the cell's pins would add +0, which changes no value other than −0; the
// gather adds that +0 explicitly to a cell without any pins, so every
// input, −0 included, accumulates to the same bits for any worker count.
func (m *Model) EvaluateWithGrad(grad []float64) float64 {
	d := m.d
	if grad != nil && len(grad) != 2*len(d.Cells) {
		panic("wirelength: gradient length mismatch")
	}
	var parts [parallel.NumShards]float64
	m.stats.Add(parallel.For(m.Workers, len(d.Nets), func(shard, lo, hi int) {
		xs, ys := m.shardX[shard], m.shardY[shard]
		ep, en := m.shardEp[shard], m.shardEn[shard]
		var total float64
		for e := lo; e < hi; e++ {
			s0, s1 := int(m.netStart[e]), int(m.netStart[e+1])
			n := s1 - s0
			if n < 2 {
				continue
			}
			w := d.Nets[e].Weight
			if w == 0 {
				w = 1
			}
			// The position sums of d.PinPos, from the slot-ordered pin table.
			off := m.pinOff[2*s0 : 2*s1]
			for k, c := range m.pinCell[s0:s1] {
				cell := &d.Cells[c]
				xs[k], ys[k] = cell.X+off[2*k], cell.Y+off[2*k+1]
			}
			var sg []float64
			if grad != nil {
				sg = m.slot[2*s0 : 2*s1]
			}
			total += w * m.axisWA(xs[:n], ep, en, sg, w, 0)
			total += w * m.axisWA(ys[:n], ep, en, sg, w, 1)
		}
		parts[shard] = total
	}))
	if grad != nil {
		m.stats.Add(parallel.For(m.Workers, len(d.Cells), func(_, lo, hi int) {
			m.gather(grad, lo, hi)
		}))
	}
	return parallel.SumShards(&parts)
}

// gather adds the slot gradients of cells [lo, hi) into grad.
func (m *Model) gather(grad []float64, lo, hi int) {
	k := int32(0)
	if r := m.cellRun[lo]; r > 0 {
		k = m.runEnd[r-1]
	}
	for c := lo; c < hi; c++ {
		r0, r1 := m.cellRun[c], m.cellRun[c+1]
		if r0 == r1 {
			grad[2*c] += 0
			grad[2*c+1] += 0
			continue
		}
		for r := r0; r < r1; r++ {
			var px, py float64
			for end := m.runEnd[r]; k < end; k++ {
				s := m.gatherSlot[k]
				px += m.slot[2*s]
				py += m.slot[2*s+1]
			}
			grad[2*c] += px
			grad[2*c+1] += py
		}
	}
}

// Evaluate returns the total WA wirelength without gradients.
func (m *Model) Evaluate() float64 { return m.EvaluateWithGrad(nil) }

// axisWA computes the WA length of one net along one axis from its pin
// coordinates and, when sg is non-nil, writes each pin's weighted gradient
// to sg[2·k+off]. The max/min-shifted exponentials keep the computation
// stable for any coordinate magnitude; ep and en are caller scratch sized
// to at least the net degree.
//
// Exponentials whose value is known exactly are not computed: a pin at
// the maximum has max-side argument ±0 and a pin at the minimum has
// min-side argument ±0, which is exactly 1 when γ > 0 (Inf−Inf, 0/0 and
// NaN/γ are NaN, so only a difference of exactly zero qualifies), and on a
// two-pin net with distinct coordinates the low pin's max side and the
// high pin's min side are the same exponential of the same argument.
func (m *Model) axisWA(coords, ep, en, sg []float64, w float64, off int) float64 {
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
	expG := func(d float64) float64 { // exp(d/γ)
		if d == 0 && g > 0 {
			return 1
		}
		return math.Exp(d / g)
	}
	// Positive side (max approximation), shifted by hi.
	// Negative side (min approximation), shifted by lo.
	if len(coords) == 2 && (coords[0] < coords[1] || coords[1] < coords[0]) {
		a, b := coords[0], coords[1]
		shared := math.Exp((lo - hi) / g)
		if a < b {
			ep[0], en[0], ep[1], en[1] = shared, expG(a-a), expG(b-b), shared
		} else {
			ep[0], en[0], ep[1], en[1] = expG(a-a), shared, shared, expG(b-b)
		}
	} else {
		for k, c := range coords {
			ep[k], en[k] = expG(c-hi), expG(lo-c)
		}
	}
	var sP, sxP, sN, sxN float64
	for k, c := range coords {
		p, q := ep[k], en[k]
		sP += p
		sxP += c * p
		sN += q
		sxN += c * q
	}
	length := sxP/sP - sxN/sN
	if sg == nil {
		return length
	}
	// d(waMax)/dc_k = ep·((1 + c/g)·sP − sxP/g)/sP²
	// d(waMin)/dc_k = en·((1 − c/g)·sN + sxN/g)/sN²
	xP, sP2 := sxP/g, sP*sP
	xN, sN2 := sxN/g, sN*sN
	for k, c := range coords {
		dMax := ep[k] * ((1+c/g)*sP - xP) / sP2
		dMin := en[k] * ((1-c/g)*sN + xN) / sN2
		sg[2*k+off] = w * (dMax - dMin)
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
