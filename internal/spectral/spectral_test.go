package spectral

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustFFT(tb testing.TB, n int) *FFT {
	tb.Helper()
	f, err := NewFFT(n)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func mustPlan(tb testing.TB, n int) *Plan {
	tb.Helper()
	p, err := PlanFor(n)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func mustTrig(tb testing.TB, n int) *Trig {
	tb.Helper()
	tr, err := NewTrig(n)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// naiveDFT computes the forward DFT directly, O(n^2), as the oracle.
func naiveDFT(re, im []float64, sign float64) ([]float64, []float64) {
	n := len(re)
	or := make([]float64, n)
	oi := make([]float64, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(j) * float64(k) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			or[k] += re[j]*c - im[j]*s
			oi[k] += re[j]*s + im[j]*c
		}
	}
	return or, oi
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 12, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 1000: 1024}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		wantRe, wantIm := naiveDFT(re, im, -1)
		f := mustFFT(t, n)
		gotRe := append([]float64(nil), re...)
		gotIm := append([]float64(nil), im...)
		f.Forward(gotRe, gotIm)
		for i := 0; i < n; i++ {
			if math.Abs(gotRe[i]-wantRe[i]) > 1e-9 || math.Abs(gotIm[i]-wantIm[i]) > 1e-9 {
				t.Fatalf("n=%d bin %d: got (%g,%g), want (%g,%g)", n, i, gotRe[i], gotIm[i], wantRe[i], wantIm[i])
			}
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 128
	f := mustFFT(t, n)
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = rng.NormFloat64()
		im[i] = rng.NormFloat64()
	}
	origRe := append([]float64(nil), re...)
	origIm := append([]float64(nil), im...)
	f.Forward(re, im)
	f.Inverse(re, im)
	for i := 0; i < n; i++ {
		if math.Abs(re[i]/float64(n)-origRe[i]) > 1e-9 || math.Abs(im[i]/float64(n)-origIm[i]) > 1e-9 {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	n := 32
	f := mustFFT(t, n)
	apply := func(x []float64) ([]float64, []float64) {
		re := append([]float64(nil), x...)
		im := make([]float64, n)
		f.Forward(re, im)
		return re, im
	}
	prop := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(a, 10), math.Mod(b, 10)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
			z[i] = a*x[i] + b*y[i]
		}
		xr, xi := apply(x)
		yr, yi := apply(y)
		zr, zi := apply(z)
		for i := 0; i < n; i++ {
			if math.Abs(zr[i]-(a*xr[i]+b*yr[i])) > 1e-7 || math.Abs(zi[i]-(a*xi[i]+b*yi[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	n := 64
	f := mustFFT(t, n)
	rng := rand.New(rand.NewSource(3))
	re := make([]float64, n)
	im := make([]float64, n)
	var timeE float64
	for i := range re {
		re[i] = rng.NormFloat64()
		im[i] = rng.NormFloat64()
		timeE += re[i]*re[i] + im[i]*im[i]
	}
	f.Forward(re, im)
	var freqE float64
	for i := range re {
		freqE += re[i]*re[i] + im[i]*im[i]
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-8*timeE {
		t.Errorf("Parseval violated: time %g freq/n %g", timeE, freqE/float64(n))
	}
}

func TestNewFFTRejectsNonPow2(t *testing.T) {
	if _, err := NewFFT(12); !errors.Is(err, ErrNotPow2) {
		t.Errorf("NewFFT(12) error = %v, want ErrNotPow2", err)
	}
	if _, err := NewFFT(0); !errors.Is(err, ErrNotPow2) {
		t.Errorf("NewFFT(0) error = %v, want ErrNotPow2", err)
	}
	if _, err := NewTrig(12); !errors.Is(err, ErrNotPow2) {
		t.Errorf("NewTrig(12) error = %v, want ErrNotPow2", err)
	}
	for _, n := range []int{12, 0, -4} {
		if _, err := PlanFor(n); !errors.Is(err, ErrNotPow2) {
			t.Errorf("PlanFor(%d) error = %v, want ErrNotPow2", n, err)
		}
	}
	if a, b := mustPlan(t, 64), mustPlan(t, 64); a != b {
		t.Errorf("PlanFor(64) returned two plans; one length must share one plan")
	}
}

// naiveAnalyzeCos is the O(n^2) oracle for the DCT-II used by the solver.
func naiveAnalyzeCos(f []float64) []float64 {
	n := len(f)
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		for x := 0; x < n; x++ {
			out[u] += f[x] * math.Cos(math.Pi*float64(u)*(float64(x)+0.5)/float64(n))
		}
	}
	return out
}

func naiveSynth(F []float64) (cosOut, sinOut []float64) {
	n := len(F)
	cosOut = make([]float64, n)
	sinOut = make([]float64, n)
	for x := 0; x < n; x++ {
		for u := 0; u < n; u++ {
			ang := math.Pi * float64(u) * (float64(x) + 0.5) / float64(n)
			cosOut[x] += F[u] * math.Cos(ang)
			sinOut[x] += F[u] * math.Sin(ang)
		}
	}
	return
}

func TestAnalyzeCosMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 4, 8, 32} {
		f := make([]float64, n)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		want := naiveAnalyzeCos(f)
		tr := mustTrig(t, n)
		got := make([]float64, n)
		tr.AnalyzeCos(got, f)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d coeff %d: got %g want %g", n, i, got[i], want[i])
			}
		}
	}
}

func TestSynthCosSinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 4, 16, 64} {
		F := make([]float64, n)
		for i := range F {
			F[i] = rng.NormFloat64()
		}
		wantC, wantS := naiveSynth(F)
		tr := mustTrig(t, n)
		gotC := make([]float64, n)
		gotS := make([]float64, n)
		tr.SynthCosSin(gotC, gotS, F)
		for i := 0; i < n; i++ {
			if math.Abs(gotC[i]-wantC[i]) > 1e-9 {
				t.Fatalf("n=%d cos[%d]: got %g want %g", n, i, gotC[i], wantC[i])
			}
			if math.Abs(gotS[i]-wantS[i]) > 1e-9 {
				t.Fatalf("n=%d sin[%d]: got %g want %g", n, i, gotS[i], wantS[i])
			}
		}
	}
}

func TestAnalyzeSynthRoundTrip(t *testing.T) {
	// DCT-II followed by properly scaled cosine synthesis reconstructs f.
	rng := rand.New(rand.NewSource(6))
	n := 64
	tr := mustTrig(t, n)
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	F := make([]float64, n)
	tr.AnalyzeCos(F, f)
	// Scale: f[x] = (1/n)·(F[0] + 2·Σ_{u>0} F[u] cos(...)).
	F[0] /= float64(n)
	for u := 1; u < n; u++ {
		F[u] *= 2 / float64(n)
	}
	got := make([]float64, n)
	tr.SynthCosSin(got, nil, F)
	for i := range got {
		if math.Abs(got[i]-f[i]) > 1e-9 {
			t.Fatalf("round trip mismatch at %d: got %g want %g", i, got[i], f[i])
		}
	}
}

func TestSynthNilOutputs(t *testing.T) {
	tr := mustTrig(t, 8)
	F := make([]float64, 8)
	F[1] = 1
	// Must not panic with either output nil.
	tr.SynthCosSin(nil, nil, F)
	out := make([]float64, 8)
	tr.SynthCosSin(out, nil, F)
	tr.SynthCosSin(nil, out, F)
}

// BenchmarkAnalyzeCos256 times one lane group: Lanes vectors of length 256
// read as columns of a row-major grid.
func BenchmarkAnalyzeCos256(b *testing.B) {
	n := 256
	p := mustPlan(b, n)
	f := make([]float64, n*Lanes)
	out := make([]float64, n*Lanes)
	for i := range f {
		f[i] = float64(i % 5)
	}
	src := Vectors{Data: f, LaneStride: 1, Stride: Lanes}
	dst := Vectors{Data: out, LaneStride: 1, Stride: Lanes}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AnalyzeCos(dst, src, Lanes)
	}
}

// paddedAnalyzeCos and paddedSynth are the reference transforms: the input
// zero-padded to 2n and run through the full FFT.Forward/Inverse path, the
// whole output computed and the first n samples read.
func paddedAnalyzeCos(t *Trig, dst, f []float64) {
	n := t.n
	re, im := make([]float64, 2*n), make([]float64, 2*n)
	copy(re, f)
	t.fft.Forward(re, im)
	for u := 0; u < n; u++ {
		dst[u] = re[u]*t.phC[u] + im[u]*t.phS[u]
	}
}

func paddedSynth(t *Trig, cosOut, sinOut, F []float64) {
	n := t.n
	re, im := make([]float64, 2*n), make([]float64, 2*n)
	for u := 0; u < n; u++ {
		re[u] = F[u] * t.phC2[u]
		im[u] = F[u] * t.phS[u]
	}
	t.fft.Inverse(re, im)
	copy(cosOut, re[:n])
	copy(sinOut, im[:n])
}

// specialInputs returns test vectors of length n: dense finite values with
// ±0 and subnormals mixed in, sparse vectors of signed zeros and subnormals
// (where the sign of a zero result is at stake), all −0, and dense vectors
// carrying ±Inf or NaN.
func specialInputs(rng *rand.Rand, n int) [][]float64 {
	sub := math.Float64frombits(1) // smallest subnormal
	specials := []float64{0, math.Copysign(0, -1), sub, -sub, 3 * sub, math.SmallestNonzeroFloat64 * 1e10}
	dense := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	sparse := make([]float64, n)
	negZero := make([]float64, n)
	for i := range sparse {
		sparse[i] = specials[rng.Intn(len(specials))]
		negZero[i] = math.Copysign(0, -1)
	}
	withInf, withNegInf, withNaN := dense(), dense(), dense()
	withInf[rng.Intn(n)] = math.Inf(1)
	withNegInf[rng.Intn(n)] = math.Inf(-1)
	withNaN[rng.Intn(n)] = math.NaN()
	return [][]float64{dense(), dense(), sparse, negZero, withInf, withNegInf, withNaN}
}

// sameBits reports whether two float64s are bit-identical (NaN payloads
// and the sign of zero included).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTrimmedTransformsMatchPaddedFFTBitwise: the trimmed AnalyzeCos and
// SynthCosSin give the full zero-padded FFT path's results bit for bit at
// every plan length from 1 to 1024.
func TestTrimmedTransformsMatchPaddedFFTBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for n := 1; n <= 1024; n *= 2 {
		tr := mustTrig(t, n)
		for vi, in := range specialInputs(rng, n) {
			got, want := make([]float64, n), make([]float64, n)
			tr.AnalyzeCos(got, in)
			paddedAnalyzeCos(tr, want, in)
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("n=%d input %d: AnalyzeCos[%d] = %v (%#x), padded FFT %v (%#x)",
						n, vi, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			wantC, wantS := make([]float64, n), make([]float64, n)
			paddedSynth(tr, wantC, wantS, in)
			gotC, gotS := make([]float64, n), make([]float64, n)
			tr.SynthCosSin(gotC, nil, in)
			tr.SynthCosSin(nil, gotS, in)
			for i := range gotC {
				if !sameBits(gotC[i], wantC[i]) || !sameBits(gotS[i], wantS[i]) {
					t.Fatalf("n=%d input %d: synth[%d] = (%v, %v), padded FFT (%v, %v)",
						n, vi, i, gotC[i], gotS[i], wantC[i], wantS[i])
				}
			}
			tr.SynthCosSin(gotC, gotS, in)
			for i := range gotC {
				if !sameBits(gotC[i], wantC[i]) || !sameBits(gotS[i], wantS[i]) {
					t.Fatalf("n=%d input %d: paired synth[%d] differs from padded FFT", n, vi, i)
				}
			}
		}
	}
}

// laneLayout places lanes vectors of length n in a slice of size elements:
// element j of vector l at off + l·laneStride + j·stride.
type laneLayout struct {
	name                          string
	off, laneStride, stride, size int
}

// laneLayouts returns the two layouts the Poisson solver uses, each inside
// a margin that a stray index would hit: rows of a grid wider than n, and
// columns of a grid wider than the lane group.
func laneLayouts(n, lanes int) []laneLayout {
	rw, cw := n+3, lanes+3
	return []laneLayout{
		{"rows", rw + 2, rw, 1, (lanes + 2) * rw},
		{"columns", cw + 2, 1, cw, (n + 2) * cw},
	}
}

// TestLaneTransformsMatchPerVector: every lane of the Plan transforms gives
// the per-vector Trig transform of its own vector bit for bit, at every
// length from 1 to 1024, with every test input in every lane, in full and
// partial lane groups, laid out as rows and as columns, unscaled and
// scaled, in place and not, with ±0, subnormal, ±Inf and NaN values; and no
// element outside the addressed vectors is written.
func TestLaneTransformsMatchPerVector(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const sentinel = 7.25
	const analysis, cosine, sine = 0, 1, 2
	for n := 1; n <= 1024; n *= 2 {
		tr, p := mustTrig(t, n), mustPlan(t, n)
		inputs := specialInputs(rng, n)
		scales := specialInputs(rng, n)
		// want[scaled][i] holds the per-vector analysis, cosine and sine
		// synthesis of input i.
		var want [2][][3][]float64
		for scaled := range want {
			for i, in := range inputs {
				v := append([]float64(nil), in...)
				if scaled == 1 {
					for j := range v {
						v[j] = in[j] * scales[i][j]
					}
				}
				r := [3][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
				tr.AnalyzeCos(r[analysis], v)
				tr.SynthCosSin(r[cosine], r[sine], v)
				want[scaled] = append(want[scaled], r)
			}
		}
		for _, lanes := range []int{Lanes, 1, 5} {
			for _, ly := range laneLayouts(n, lanes) {
				blank := func() []float64 {
					v := make([]float64, ly.size)
					for i := range v {
						v[i] = sentinel
					}
					return v
				}
				vec := func(d []float64) Vectors {
					return Vectors{Data: d, Off: ly.off, LaneStride: ly.laneStride, Stride: ly.stride}
				}
				for shift := range inputs {
					pick := func(l int) int { return (l + shift) % len(inputs) }
					data, scale := blank(), blank()
					for l := 0; l < lanes; l++ {
						for j := 0; j < n; j++ {
							at := ly.off + l*ly.laneStride + j*ly.stride
							data[at], scale[at] = inputs[pick(l)][j], scales[pick(l)][j]
						}
					}
					for scaled := 0; scaled < 2; scaled++ {
						// expect checks every lane of got against transform k of
						// its input, and that nothing else was written.
						expect := func(what string, got []float64, k int) {
							t.Helper()
							seen := make([]bool, ly.size)
							for l := 0; l < lanes; l++ {
								w := want[scaled][pick(l)][k]
								for j := 0; j < n; j++ {
									at := ly.off + l*ly.laneStride + j*ly.stride
									seen[at] = true
									if !sameBits(got[at], w[j]) {
										t.Fatalf("n=%d lanes=%d %s shift=%d scaled=%d: %s lane %d [%d] = %v (%#x), per-vector %v (%#x)",
											n, lanes, ly.name, shift, scaled, what, l, j,
											got[at], math.Float64bits(got[at]), w[j], math.Float64bits(w[j]))
									}
								}
							}
							for i, v := range got {
								if !seen[i] && v != sentinel {
									t.Fatalf("n=%d lanes=%d %s: %s wrote element %d outside its vectors", n, lanes, ly.name, what, i)
								}
							}
						}
						src := vec(data)
						if scaled == 1 {
							src.Scale = scale
						}
						a, c, s := blank(), blank(), blank()
						p.AnalyzeCos(vec(a), src, lanes)
						p.SynthCosSin(vec(c), Vectors{}, src, lanes)
						p.SynthCosSin(Vectors{}, vec(s), src, lanes)
						expect("AnalyzeCos", a, analysis)
						expect("cosine synthesis", c, cosine)
						expect("sine synthesis", s, sine)
						c, s = blank(), blank()
						p.SynthCosSin(vec(c), vec(s), src, lanes)
						expect("paired cosine synthesis", c, cosine)
						expect("paired sine synthesis", s, sine)
						if scaled == 0 {
							a, c, s = append([]float64(nil), data...), append([]float64(nil), data...), append([]float64(nil), data...)
							p.AnalyzeCos(vec(a), vec(a), lanes)
							p.SynthCosSin(vec(c), Vectors{}, vec(c), lanes)
							p.SynthCosSin(Vectors{}, vec(s), vec(s), lanes)
							expect("in-place AnalyzeCos", a, analysis)
							expect("in-place cosine synthesis", c, cosine)
							expect("in-place sine synthesis", s, sine)
						}
					}
				}
			}
		}
	}
}

// TestPlanConcurrentCalls: calls on one shared plan from several goroutines
// borrow separate scratch and give the serial results.
func TestPlanConcurrentCalls(t *testing.T) {
	const n = 64
	p := mustPlan(t, n)
	rng := rand.New(rand.NewSource(31))
	in := make([]float64, n*Lanes)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	vec := func(d []float64) Vectors { return Vectors{Data: d, LaneStride: 1, Stride: Lanes} }
	want := make([]float64, n*Lanes)
	p.AnalyzeCos(vec(want), vec(in), Lanes)
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		go func() {
			out := make([]float64, n*Lanes)
			for k := 0; k < 50; k++ {
				p.AnalyzeCos(vec(out), vec(in), Lanes)
				for i := range out {
					if !sameBits(out[i], want[i]) {
						errs <- fmt.Sprintf("element %d differs", i)
						return
					}
				}
			}
			errs <- ""
		}()
	}
	for g := 0; g < 8; g++ {
		if e := <-errs; e != "" {
			t.Error(e)
		}
	}
}
