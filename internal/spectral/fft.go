// Package spectral implements the fast trigonometric transforms underlying
// the electrostatic placement engine: a radix-2 complex FFT and, built on it,
// the half-sample cosine analysis (DCT-II) and combined cosine/sine synthesis
// used by the spectral Poisson solver of ePlace (Lu et al., TODAES 2015).
//
// All lengths must be powers of two; the Poisson grid is sized accordingly.
package spectral

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrNotPow2 is the typed failure of the transform constructors: the
// requested length is not a positive power of two. Callers match it with
// errors.Is; the wrapping message carries the offending length.
var ErrNotPow2 = errors.New("length is not a power of two")

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n (n must be positive).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// FFT holds precomputed twiddle factors and bit-reversal tables for a fixed
// power-of-two length, so repeated transforms allocate nothing.
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

// Len returns the transform length.
func (f *FFT) Len() int { return f.n }

// Forward computes the in-place forward DFT
//
//	X[k] = Σ_j x[j] · e^{-2πi jk/n}
//
// on the interleaved real/imag slices re, im (each of length n).
func (f *FFT) Forward(re, im []float64) { f.transform(re, im, -1) }

// Inverse computes the in-place unnormalized inverse DFT
//
//	x[j] = Σ_k X[k] · e^{+2πi jk/n}
//
// Callers divide by n when they need the normalized inverse.
func (f *FFT) Inverse(re, im []float64) { f.transform(re, im, +1) }

func (f *FFT) transform(re, im []float64, sign float64) {
	n := f.n
	if len(re) != n || len(im) != n {
		panic("spectral: slice length does not match FFT plan")
	}
	// Bit-reversal permutation.
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
