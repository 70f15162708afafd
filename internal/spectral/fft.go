// Package spectral implements the fast trigonometric transforms underlying
// the electrostatic placement engine: the half-sample cosine analysis
// (DCT-II) and combined cosine/sine synthesis used by the spectral Poisson
// solver of ePlace (Lu et al., TODAES 2015), each computed through a
// radix-2 complex FFT of twice the length, on up to Lanes vectors at once.
//
// All lengths must be powers of two; the Poisson grid is sized accordingly.
package spectral

import (
	"errors"
	"math/bits"
)

// ErrNotPow2 is the typed failure of the plan constructor: the requested
// length is not a positive power of two. Callers match it with errors.Is;
// the wrapping message carries the offending length.
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
