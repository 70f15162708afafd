package spectral

import (
	"fmt"
	"math"
)

// Trig provides half-sample cosine analysis and cosine/sine synthesis of a
// fixed power-of-two length n, sharing one length-2n FFT plan. These are the
// 1-D building blocks of the spectral Poisson solver:
//
//	AnalyzeCos:  F[u] = Σ_{x=0}^{n-1} f[x] · cos(π u (x+½) / n)        (DCT-II)
//	SynthCosSin: c[x] = Σ_{u=0}^{n-1} F[u] · cos(π u (x+½) / n)        (DCT-III-like)
//	             s[x] = Σ_{u=0}^{n-1} F[u] · sin(π u (x+½) / n)        (DST synthesis)
//
// The cos/sin pair is produced by a single complex FFT because both are the
// real and imaginary parts of the same exponential sum — the placer needs
// exactly this pairing (potential uses cos, field uses sin).
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

// Len returns the plan length.
func (t *Trig) Len() int { return t.n }

// Clone returns a plan usable concurrently with t: the FFT plan and the
// phase tables (all read-only after construction) are shared, only the
// private scratch is reallocated. AnalyzeCos/SynthCosSin mutate scratch,
// so one Trig must never be used from two goroutines — one clone per
// worker shard is the intended pattern.
func (t *Trig) Clone() *Trig {
	c := *t
	c.re = make([]float64, 2*t.n)
	c.im = make([]float64, 2*t.n)
	return &c
}

// The transforms below are the length-2n FFT of a zero-padded input with
// the work on known zeros and unread outputs left out, computing exactly the
// floating-point operations of the full FFT path that reach the result:
//
//   - The padded input is written straight into bit-reversed order with the
//     first butterfly stage folded into the load. Bit reversal puts input
//     sample rev[2m] < n at position 2m and a padding zero at 2m+1, and the
//     size-2 butterfly (twiddle 1, ±0) turns the pair into (v + 0, v − 0) =
//     (v + 0, v). The + 0 stays: it maps −0 to +0 as the butterfly does.
//   - The last stage produces only the outputs [0, n) that are read, and only
//     the real or imaginary part the caller asked for.

// AnalyzeCos writes the DCT-II of f into dst (both length n). dst and f may
// alias.
func (t *Trig) AnalyzeCos(dst, f []float64) {
	n := t.n
	if len(f) != n || len(dst) != n {
		panic("spectral: AnalyzeCos length mismatch")
	}
	// Σ_x f[x] e^{-iπu(x+½)/n} = e^{-iπu/2n} · Σ_x f[x] e^{-2πi ux / 2n}:
	// zero-pad f to length 2n, forward FFT, rotate by the half-sample phase.
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
		// Re(e^{-iθ}·(re+i·im)) = re·cosθ + im·sinθ
		dst[u] = (re[u]+tr)*t.phC[u] + (im[u]+ti)*t.phS[u]
	}
}

// SynthCosSin evaluates both the cosine and sine synthesis of the coefficient
// vector F at the n half-sample points, writing them to cosOut and sinOut.
// Either output may be nil to skip it; outputs must not alias F.
func (t *Trig) SynthCosSin(cosOut, sinOut, F []float64) {
	n := t.n
	if len(F) != n {
		panic("spectral: SynthCosSin length mismatch")
	}
	// Σ_u F[u] e^{+iπu(x+½)/n} = Σ_u (F[u] e^{iπu/2n}) e^{2πi ux / 2n}:
	// rotate coefficients by the half-sample phase, zero-pad to 2n, inverse FFT.
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
