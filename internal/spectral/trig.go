package spectral

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Lanes is the number of vectors a Plan transforms at once. Element j of
// lane l sits at index j·Lanes+l of the scratch, so every butterfly loads
// its twiddle once and applies it to Lanes contiguous values. The lanes
// never mix, so the count changes the speed and never a result.
const Lanes = 16

// Plan provides half-sample cosine analysis and cosine/sine synthesis of a
// fixed power-of-two length n, for up to Lanes vectors per call. These are
// the 1-D building blocks of the spectral Poisson solver:
//
//	AnalyzeCos:  F[u] = Σ_{x=0}^{n-1} f[x] · cos(π u (x+½) / n)        (DCT-II)
//	SynthCosSin: c[x] = Σ_{u=0}^{n-1} F[u] · cos(π u (x+½) / n)        (DCT-III-like)
//	             s[x] = Σ_{u=0}^{n-1} F[u] · sin(π u (x+½) / n)        (DST synthesis)
//
// The cos/sin pair is produced by a single complex FFT because both are the
// real and imaginary parts of the same exponential sum — the placer needs
// exactly this pairing (potential uses cos, field uses sin).
//
// A Plan is shared by every user of its length (PlanFor) and is safe for
// concurrent use: its tables are read-only, and each call borrows lane
// scratch from the plan's pool, which holds as many sets as calls have
// ever run at once. A call writes every scratch value it reads, so which
// set it borrows never changes a result.
type Plan struct {
	n      int
	load   []int32   // load[m]: the input sample at bit-reversed position 2m of the length-2n FFT
	stages []stage   // the butterfly stages of sizes 4, 8, …, n, in order
	cosT   []float64 // cos(2πk/2n), k = 0..n-1: the twiddles of the last stage
	sinT   []float64 // sin(2πk/2n)
	phC    []float64 // cos(π u / 2n), u = 0..n-1 (half-sample phase)
	phS    []float64 // sin(π u / 2n)

	mu   sync.Mutex
	free []*scratch
}

// stage holds the twiddles of one butterfly stage of size s in the order
// its butterflies use them: twiddle j (j < s/2) is cosT[j·step] with
// sin[forward][j] = −sinT[j·step] and sin[inverse][j] = +sinT[j·step],
// step = 2n/s. The negation is exact, so the forward table holds the bits
// the sign multiply of a generic FFT would give.
type stage struct {
	cos []float64
	sin [2][]float64
}

// The transform directions, indexing stage.sin.
const (
	forward = 0
	inverse = 1
)

// scratch is one set of lane buffers: real and imaginary parts of Lanes
// interleaved length-2n vectors.
type scratch struct{ re, im []float64 }

var plans struct {
	sync.Mutex
	byLen map[int]*Plan
}

// PlanFor returns the process-wide plan of length n, building it on first
// use. n must be a power of two; any other length fails with an error
// matching ErrNotPow2.
func PlanFor(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("spectral: transform length %d: %w", n, ErrNotPow2)
	}
	plans.Lock()
	defer plans.Unlock()
	if p := plans.byLen[n]; p != nil {
		return p, nil
	}
	if plans.byLen == nil {
		plans.byLen = map[int]*Plan{}
	}
	p := newPlan(n)
	plans.byLen[n] = p
	return p, nil
}

func newPlan(n int) *Plan {
	N := 2 * n
	p := &Plan{
		n:    n,
		load: make([]int32, n),
		cosT: make([]float64, n),
		sinT: make([]float64, n),
		phC:  make([]float64, n),
		phS:  make([]float64, n),
	}
	shift := bits.LeadingZeros(uint(N)) + 1
	for m := range p.load {
		p.load[m] = int32(bits.Reverse(uint(2*m)) >> shift)
	}
	for k := 0; k < n; k++ {
		ang := 2 * math.Pi * float64(k) / float64(N)
		p.cosT[k] = math.Cos(ang)
		p.sinT[k] = math.Sin(ang)
	}
	for size := 4; size <= n; size <<= 1 {
		half, step := size/2, N/size
		st := stage{cos: make([]float64, half), sin: [2][]float64{make([]float64, half), make([]float64, half)}}
		for j := 0; j < half; j++ {
			st.cos[j] = p.cosT[j*step]
			st.sin[forward][j] = -p.sinT[j*step]
			st.sin[inverse][j] = p.sinT[j*step]
		}
		p.stages = append(p.stages, st)
	}
	for u := 0; u < n; u++ {
		ang := math.Pi * float64(u) / float64(2*n)
		p.phC[u] = math.Cos(ang)
		p.phS[u] = math.Sin(ang)
	}
	return p
}

func (p *Plan) get() *scratch {
	p.mu.Lock()
	k := len(p.free)
	if k == 0 {
		p.mu.Unlock()
		return &scratch{re: make([]float64, 2*p.n*Lanes), im: make([]float64, 2*p.n*Lanes)}
	}
	sc := p.free[k-1]
	p.free = p.free[:k-1]
	p.mu.Unlock()
	return sc
}

func (p *Plan) put(sc *scratch) {
	p.mu.Lock()
	p.free = append(p.free, sc)
	p.mu.Unlock()
}

// Vectors addresses up to Lanes vectors of a plan's length inside one
// slice: element j of vector l is Data[Off + l·LaneStride + j·Stride]. On
// a row-major nx-wide grid, the rows from iy are {Off: iy·nx, LaneStride:
// nx, Stride: 1} and the columns from ix are {Off: ix, LaneStride: 1,
// Stride: nx}. An input with a non-nil Scale is read as Data[i]·Scale[i].
type Vectors struct {
	Data, Scale             []float64
	Off, LaneStride, Stride int
}

// lane returns the Lanes values of point j of an interleaved buffer.
func lane(v []float64, j int) *[Lanes]float64 { return (*[Lanes]float64)(v[j*Lanes:]) }

// The transforms below are the length-2n FFT of a zero-padded input with
// the work on known zeros and unread outputs left out, computing exactly the
// floating-point operations of the full FFT path that reach the result, in
// every lane:
//
//   - The padded input is written straight into bit-reversed order with the
//     first butterfly stage folded into the load. Bit reversal puts input
//     sample load[m] < n at position 2m and a padding zero at 2m+1, and the
//     size-2 butterfly (twiddle 1, ±0) turns the pair into (v + 0, v − 0) =
//     (v + 0, v). The + 0 stays: it maps −0 to +0 as the butterfly does.
//   - The stages of sizes 4 to n/2 run two at a time (radix 2²), after a
//     lone radix-2 stage when their count is odd: one pass over each group
//     of four points a, a+s/2, a+s, a+3s/2 applies the size-s butterflies
//     (a, a+s/2) and (a+s, a+3s/2), then the size-2s butterflies (a, a+s)
//     and (a+s/2, a+3s/2). Each butterfly reads exactly the values the
//     stage-by-stage order gives it, with the same twiddle.
//   - The last stage produces only the outputs [0, n) that are read, and only
//     the real or imaginary part the caller asked for; it runs in the same
//     pass as the stage of size n, over the four points j, j+n/2, j+n and
//     j+3n/2, which yield outputs j and j+n/2.

// AnalyzeCos writes the DCT-II of the first lanes vectors of src into the
// same vectors of dst. dst and src may alias.
func (p *Plan) AnalyzeCos(dst, src Vectors, lanes int) {
	checkLanes(lanes)
	n := p.n
	// Σ_x f[x] e^{-iπu(x+½)/n} = e^{-iπu/2n} · Σ_x f[x] e^{-2πi ux / 2n}:
	// zero-pad f to length 2n, forward FFT, rotate by the half-sample phase.
	sc := p.get()
	defer p.put(sc)
	re, im := sc.re, sc.im
	for m, x := range p.load {
		r0, r1 := lane(re, 2*m), lane(re, 2*m+1)
		at := src.Off + int(x)*src.Stride
		for l := 0; l < lanes; l++ {
			v := src.at(at + l*src.LaneStride)
			r0[l] = v + 0
			r1[l] = v
		}
		clear(r0[lanes:])
		clear(r1[lanes:])
		clear(im[2*m*Lanes : (2*m+2)*Lanes])
	}
	switch {
	case n == 1:
		for l := 0; l < lanes; l++ {
			dst.Data[dst.Off+l*dst.LaneStride] = re[l]*p.phC[0] + im[l]*p.phS[0]
		}
	case n == 2: // the last stage alone
		for u := 0; u < n; u++ {
			wr, wi := p.cosT[u], -p.sinT[u] // forward twiddle: sign −1
			ru, iu, rp, ip := lane(re, u), lane(im, u), lane(re, u+n), lane(im, u+n)
			at := dst.Off + u*dst.Stride
			for l := 0; l < lanes; l++ {
				tr := rp[l]*wr - ip[l]*wi
				ti := rp[l]*wi + ip[l]*wr
				// Re(e^{-iθ}·(re+i·im)) = re·cosθ + im·sinθ
				dst.Data[at+l*dst.LaneStride] = (ru[l]+tr)*p.phC[u] + (iu[l]+ti)*p.phS[u]
			}
		}
	default:
		p.butterflies(re, im, forward)
		h, last := n/2, &p.stages[len(p.stages)-1]
		for j := 0; j < h; j++ {
			w1r, w1i := last.cos[j], last.sin[forward][j]
			war, wai := p.cosT[j], -p.sinT[j] // forward twiddles: sign −1
			wbr, wbi := p.cosT[j+h], -p.sinT[j+h]
			pca, psa, pcb, psb := p.phC[j], p.phS[j], p.phC[j+h], p.phS[j+h]
			ra, ia, rb, ib := lane(re, j), lane(im, j), lane(re, j+h), lane(im, j+h)
			rc, ic, rd, id := lane(re, j+n), lane(im, j+n), lane(re, j+n+h), lane(im, j+n+h)
			atA, atB := dst.Off+j*dst.Stride, dst.Off+(j+h)*dst.Stride
			for l := 0; l < lanes; l++ {
				ar, ai, br, bi := butterfly(ra[l], ia[l], rb[l], ib[l], w1r, w1i)
				cr, ci, dr, di := butterfly(rc[l], ic[l], rd[l], id[l], w1r, w1i)
				// Last stage: outputs j from (a, c) and j + n/2 from (b, d).
				// Re(e^{-iθ}·(re+i·im)) = re·cosθ + im·sinθ
				tr := cr*war - ci*wai
				ti := cr*wai + ci*war
				dst.Data[atA+l*dst.LaneStride] = (ar+tr)*pca + (ai+ti)*psa
				tr = dr*wbr - di*wbi
				ti = dr*wbi + di*wbr
				dst.Data[atB+l*dst.LaneStride] = (br+tr)*pcb + (bi+ti)*psb
			}
		}
	}
}

// SynthCosSin evaluates both the cosine and sine synthesis of the first
// lanes coefficient vectors of src at the n half-sample points, writing
// them to the same vectors of cosOut and sinOut. An output with nil Data
// is skipped; either output may alias src.
func (p *Plan) SynthCosSin(cosOut, sinOut, src Vectors, lanes int) {
	checkLanes(lanes)
	n := p.n
	// Σ_u F[u] e^{+iπu(x+½)/n} = Σ_u (F[u] e^{iπu/2n}) e^{2πi ux / 2n}:
	// rotate coefficients by the half-sample phase, zero-pad to 2n, inverse FFT.
	sc := p.get()
	defer p.put(sc)
	re, im := sc.re, sc.im
	for m, x := range p.load {
		u := int(x)
		pc, ps := p.phC[u], p.phS[u]
		r0, r1, i0, i1 := lane(re, 2*m), lane(re, 2*m+1), lane(im, 2*m), lane(im, 2*m+1)
		at := src.Off + u*src.Stride
		for l := 0; l < lanes; l++ {
			F := src.at(at + l*src.LaneStride)
			a := F * pc
			b := F * ps
			r0[l] = a + 0
			r1[l] = a
			i0[l] = b + 0
			i1[l] = b
		}
		clear(r0[lanes:])
		clear(r1[lanes:])
		clear(i0[lanes:])
		clear(i1[lanes:])
	}
	switch {
	case n == 1:
		for l := 0; l < lanes; l++ {
			if cosOut.Data != nil {
				cosOut.Data[cosOut.Off+l*cosOut.LaneStride] = re[l]
			}
			if sinOut.Data != nil {
				sinOut.Data[sinOut.Off+l*sinOut.LaneStride] = im[l]
			}
		}
	case n == 2: // the last stage alone
		for x := 0; x < n; x++ {
			wr, wi := p.cosT[x], p.sinT[x]
			rx, ix, rp, ip := lane(re, x), lane(im, x), lane(re, x+n), lane(im, x+n)
			for l := 0; l < lanes; l++ {
				if cosOut.Data != nil {
					cosOut.Data[cosOut.Off+x*cosOut.Stride+l*cosOut.LaneStride] = rx[l] + (rp[l]*wr - ip[l]*wi)
				}
				if sinOut.Data != nil {
					sinOut.Data[sinOut.Off+x*sinOut.Stride+l*sinOut.LaneStride] = ix[l] + (rp[l]*wi + ip[l]*wr)
				}
			}
		}
	default:
		p.butterflies(re, im, inverse)
		h, last := n/2, &p.stages[len(p.stages)-1]
		for j := 0; j < h; j++ {
			w1r, w1i := last.cos[j], last.sin[inverse][j]
			war, wai := p.cosT[j], p.sinT[j]
			wbr, wbi := p.cosT[j+h], p.sinT[j+h]
			ra, ia, rb, ib := lane(re, j), lane(im, j), lane(re, j+h), lane(im, j+h)
			rc, ic, rd, id := lane(re, j+n), lane(im, j+n), lane(re, j+n+h), lane(im, j+n+h)
			cosA, cosB := cosOut.Off+j*cosOut.Stride, cosOut.Off+(j+h)*cosOut.Stride
			sinA, sinB := sinOut.Off+j*sinOut.Stride, sinOut.Off+(j+h)*sinOut.Stride
			for l := 0; l < lanes; l++ {
				ar, ai, br, bi := butterfly(ra[l], ia[l], rb[l], ib[l], w1r, w1i)
				cr, ci, dr, di := butterfly(rc[l], ic[l], rd[l], id[l], w1r, w1i)
				// Last stage: outputs j from (a, c) and j + n/2 from (b, d).
				if cosOut.Data != nil {
					cosOut.Data[cosA+l*cosOut.LaneStride] = ar + (cr*war - ci*wai)
					cosOut.Data[cosB+l*cosOut.LaneStride] = br + (dr*wbr - di*wbi)
				}
				if sinOut.Data != nil {
					sinOut.Data[sinA+l*sinOut.LaneStride] = ai + (cr*wai + ci*war)
					sinOut.Data[sinB+l*sinOut.LaneStride] = bi + (dr*wbi + di*wbr)
				}
			}
		}
	}
}

func checkLanes(lanes int) {
	if lanes < 1 || lanes > Lanes {
		panic("spectral: lane count out of range")
	}
}

// at reads input element i.
func (v *Vectors) at(i int) float64 {
	if v.Scale != nil {
		return v.Data[i] * v.Scale[i]
	}
	return v.Data[i]
}

// butterfly applies one radix-2 butterfly with twiddle w to the points a
// and b of one lane, returning a + w·b and a − w·b.
func butterfly(ar, ai, br, bi, wr, wi float64) (float64, float64, float64, float64) {
	tr := br*wr - bi*wi
	ti := br*wi + bi*wr
	return ar + tr, ai + ti, ar - tr, ai - ti
}

// butterflies runs the stages of sizes 4 to n/2 of the length-2n FFT on the
// lane buffers — stage n runs fused with the output — as a lone radix-2
// stage first when their count is odd, then fused radix-2² passes.
func (p *Plan) butterflies(re, im []float64, dir int) {
	st := p.stages[:len(p.stages)-1]
	if len(st)%2 == 1 {
		p.radix2(re, im, st[0].cos, st[0].sin[dir])
		st = st[1:]
	}
	for k := 0; k < len(st); k += 2 {
		p.radix4(re, im, st[k].cos, st[k].sin[dir], st[k+1].cos, st[k+1].sin[dir])
	}
}

// radix2 applies one butterfly stage of size 2·len(c).
func (p *Plan) radix2(re, im, c, s []float64) {
	half := len(c)
	for base := 0; base < 2*p.n; base += 2 * half {
		for j := 0; j < half; j++ {
			wr, wi := c[j], s[j]
			ra, ia := lane(re, base+j), lane(im, base+j)
			rb, ib := lane(re, base+j+half), lane(im, base+j+half)
			for l := 0; l < Lanes; l++ {
				ra[l], ia[l], rb[l], ib[l] = butterfly(ra[l], ia[l], rb[l], ib[l], wr, wi)
			}
		}
	}
}

// radix4 applies the butterfly stage of size s = 2·len(c1) and then the one
// of size 2s (twiddles c2, s2) in a single pass over groups of four points.
func (p *Plan) radix4(re, im, c1, s1, c2, s2 []float64) {
	h := len(c1) // s/2
	for base := 0; base < 2*p.n; base += 4 * h {
		for j := 0; j < h; j++ {
			w1r, w1i := c1[j], s1[j]
			w2r, w2i := c2[j], s2[j]
			w3r, w3i := c2[j+h], s2[j+h]
			a := base + j
			ra, ia := lane(re, a), lane(im, a)
			rb, ib := lane(re, a+h), lane(im, a+h)
			rc, ic := lane(re, a+2*h), lane(im, a+2*h)
			rd, id := lane(re, a+3*h), lane(im, a+3*h)
			for l := 0; l < Lanes; l++ {
				// Size s: (a, b) and (c, d), both with twiddle j.
				ar, ai, br, bi := butterfly(ra[l], ia[l], rb[l], ib[l], w1r, w1i)
				cr, ci, dr, di := butterfly(rc[l], ic[l], rd[l], id[l], w1r, w1i)
				// Size 2s: (a, c) with twiddle j, (b, d) with twiddle j + s/2.
				ra[l], ia[l], rc[l], ic[l] = butterfly(ar, ai, cr, ci, w2r, w2i)
				rb[l], ib[l], rd[l], id[l] = butterfly(br, bi, dr, di, w3r, w3i)
			}
		}
	}
}
