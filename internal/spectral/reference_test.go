package spectral

import (
	"fmt"
	"math"
	"math/bits"
)

// This file keeps the per-vector transforms the lane Plan replaced: a
// radix-2 complex FFT and, built on it, the one-vector AnalyzeCos and
// SynthCosSin. They are the bitwise reference of the lane transforms
// (TestLaneTransformsMatchPerVector) and are themselves checked against
// the full zero-padded FFT and the O(n²) sums.

// FFT holds precomputed twiddle factors and bit-reversal tables for a fixed
// power-of-two length.
type FFT struct {
	n    int
	rev  []int
	cosT []float64 // cos(2πk/n), k = 0..n/2-1
	sinT []float64 // sin(2πk/n)
}

// NewFFT creates a transform plan of length n. n must be a power of two;
// any other length fails with an error matching ErrNotPow2.
func NewFFT(n int) (*FFT, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("spectral: FFT length %d: %w", n, ErrNotPow2)
	}
	f := &FFT{n: n, rev: make([]int, n), cosT: make([]float64, n/2), sinT: make([]float64, n/2)}
	shift := bits.LeadingZeros(uint(n)) + 1
	for i := 0; i < n; i++ {
		f.rev[i] = int(bits.Reverse(uint(i)) >> shift)
	}
	for k := 0; k < n/2; k++ {
		ang := 2 * math.Pi * float64(k) / float64(n)
		f.cosT[k] = math.Cos(ang)
		f.sinT[k] = math.Sin(ang)
	}
	return f, nil
}

// Forward computes the in-place forward DFT X[k] = Σ_j x[j] · e^{-2πi jk/n}.
func (f *FFT) Forward(re, im []float64) { f.transform(re, im, -1) }

// Inverse computes the in-place unnormalized inverse DFT
// x[j] = Σ_k X[k] · e^{+2πi jk/n}.
func (f *FFT) Inverse(re, im []float64) { f.transform(re, im, +1) }

func (f *FFT) transform(re, im []float64, sign float64) {
	n := f.n
	if len(re) != n || len(im) != n {
		panic("spectral: slice length does not match FFT plan")
	}
	for i, j := range f.rev {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	f.stages(re, im, sign, 2, n)
}

// stages runs the iterative Cooley-Tukey butterfly stages of sizes from,
// 2·from, …, to on bit-reversed data.
func (f *FFT) stages(re, im []float64, sign float64, from, to int) {
	n := f.n
	for size := from; size <= to; size <<= 1 {
		half := size >> 1
		step := n / size
		for base := 0; base < n; base += size {
			k := 0
			for off := base; off < base+half; off++ {
				wr := f.cosT[k]
				wi := sign * f.sinT[k]
				p := off + half
				tr := re[p]*wr - im[p]*wi
				ti := re[p]*wi + im[p]*wr
				re[p] = re[off] - tr
				im[p] = im[off] - ti
				re[off] += tr
				im[off] += ti
				k += step
			}
		}
	}
}

// Trig is the per-vector AnalyzeCos/SynthCosSin of length n on one
// length-2n FFT plan.
type Trig struct {
	n    int
	fft  *FFT
	re   []float64 // scratch, length 2n
	im   []float64
	phC  []float64 // cos(π u / 2n), u = 0..n-1 (analysis phase)
	phS  []float64 // sin(π u / 2n)
	phC2 []float64 // cos(π u / 2n) reused for synthesis phase
}

// NewTrig creates a plan for length n. n must be a power of two; any other
// length fails with an error matching ErrNotPow2.
func NewTrig(n int) (*Trig, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("spectral: Trig length %d: %w", n, ErrNotPow2)
	}
	fft, err := NewFFT(2 * n)
	if err != nil {
		return nil, err
	}
	t := &Trig{
		n:   n,
		fft: fft,
		re:  make([]float64, 2*n),
		im:  make([]float64, 2*n),
		phC: make([]float64, n),
		phS: make([]float64, n),
	}
	for u := 0; u < n; u++ {
		ang := math.Pi * float64(u) / float64(2*n)
		t.phC[u] = math.Cos(ang)
		t.phS[u] = math.Sin(ang)
	}
	t.phC2 = t.phC
	return t, nil
}

// AnalyzeCos writes the DCT-II of f into dst (both length n), through the
// trimmed zero-padded FFT the lane transforms describe.
func (t *Trig) AnalyzeCos(dst, f []float64) {
	n := t.n
	if len(f) != n || len(dst) != n {
		panic("spectral: AnalyzeCos length mismatch")
	}
	re, im, rev := t.re, t.im, t.fft.rev
	for m := 0; m < n; m++ {
		v := f[rev[2*m]]
		re[2*m] = v + 0
		re[2*m+1] = v
		im[2*m] = 0
		im[2*m+1] = 0
	}
	if n == 1 {
		dst[0] = re[0]*t.phC[0] + im[0]*t.phS[0]
		return
	}
	t.fft.stages(re, im, -1, 4, n)
	cosT, sinT := t.fft.cosT, t.fft.sinT
	for u := 0; u < n; u++ {
		wr, wi := cosT[u], -sinT[u] // forward twiddle: sign −1
		p := u + n
		tr := re[p]*wr - im[p]*wi
		ti := re[p]*wi + im[p]*wr
		dst[u] = (re[u]+tr)*t.phC[u] + (im[u]+ti)*t.phS[u]
	}
}

// SynthCosSin evaluates both the cosine and sine synthesis of F at the n
// half-sample points into cosOut and sinOut; either may be nil.
func (t *Trig) SynthCosSin(cosOut, sinOut, F []float64) {
	n := t.n
	if len(F) != n {
		panic("spectral: SynthCosSin length mismatch")
	}
	re, im, rev := t.re, t.im, t.fft.rev
	for m := 0; m < n; m++ {
		u := rev[2*m]
		a := F[u] * t.phC2[u]
		b := F[u] * t.phS[u]
		re[2*m] = a + 0
		re[2*m+1] = a
		im[2*m] = b + 0
		im[2*m+1] = b
	}
	if n == 1 {
		if cosOut != nil {
			cosOut[0] = re[0]
		}
		if sinOut != nil {
			sinOut[0] = im[0]
		}
		return
	}
	t.fft.stages(re, im, +1, 4, n)
	cosT, sinT := t.fft.cosT, t.fft.sinT
	if cosOut != nil {
		for x := 0; x < n; x++ {
			wr, wi := cosT[x], sinT[x]
			p := x + n
			cosOut[x] = re[x] + (re[p]*wr - im[p]*wi)
		}
	}
	if sinOut != nil {
		for x := 0; x < n; x++ {
			wr, wi := cosT[x], sinT[x]
			p := x + n
			sinOut[x] = im[x] + (re[p]*wi + im[p]*wr)
		}
	}
}
