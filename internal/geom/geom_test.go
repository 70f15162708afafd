package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Point{3, 4}
	q := Point{1, -2}
	if got := p.Add(q); got != (Point{4, 2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Norm(); !almostEq(got, 5) {
		t.Errorf("Norm = %v", got)
	}
	if got := p.Dist(Point{0, 0}); !almostEq(got, 5) {
		t.Errorf("Dist = %v", got)
	}
}

func TestUnitZeroVector(t *testing.T) {
	z := Point{}
	if got := z.Unit(); got != z {
		t.Errorf("Unit of zero vector = %v, want zero", got)
	}
	u := Point{3, 4}.Unit()
	if !almostEq(u.Norm(), 1) {
		t.Errorf("Unit norm = %v, want 1", u.Norm())
	}
}

func TestPerpOrthogonal(t *testing.T) {
	p := Point{2.5, -7}
	if got := p.Dot(p.Perp()); !almostEq(got, 0) {
		t.Errorf("p . perp(p) = %v, want 0", got)
	}
	if !almostEq(p.Perp().Norm(), p.Norm()) {
		t.Errorf("perp changes length")
	}
}

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	if r.Lo != (Point{1, 2}) || r.Hi != (Point{5, 7}) {
		t.Errorf("NewRect = %v", r)
	}
	if !almostEq(r.W(), 4) || !almostEq(r.H(), 5) || !almostEq(r.Area(), 20) {
		t.Errorf("dims: W=%v H=%v Area=%v", r.W(), r.H(), r.Area())
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	cases := []struct {
		p    Point
		half bool // half-open convention
		full bool // closed convention
	}{
		{Point{5, 5}, true, true},
		{Point{0, 0}, true, true},
		{Point{10, 10}, false, true},
		{Point{10, 5}, false, true},
		{Point{-1, 5}, false, false},
		{Point{5, 11}, false, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.half {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.half)
		}
		if got := r.ContainsClosed(c.p); got != c.full {
			t.Errorf("ContainsClosed(%v) = %v, want %v", c.p, got, c.full)
		}
	}
}

func TestIntersectAndOverlap(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	if got := a.Overlap(b); !almostEq(got, 25) {
		t.Errorf("Overlap = %v, want 25", got)
	}
	c := NewRect(20, 20, 30, 30)
	if a.Intersects(c) {
		t.Errorf("disjoint rects report intersection")
	}
	if got := a.Overlap(c); got != 0 {
		t.Errorf("disjoint overlap = %v", got)
	}
	// Touching edges share no area.
	d := NewRect(10, 0, 20, 10)
	if a.Intersects(d) {
		t.Errorf("edge-touching rects report positive-area intersection")
	}
}

func TestOverlapCommutativeProperty(t *testing.T) {
	f := func(x0, y0, x1, y1, u0, v0, u1, v1 float64) bool {
		a := NewRect(mod100(x0), mod100(y0), mod100(x1), mod100(y1))
		b := NewRect(mod100(u0), mod100(v0), mod100(u1), mod100(v1))
		ab, ba := a.Overlap(b), b.Overlap(a)
		if math.Abs(ab-ba) > 1e-9 {
			return false
		}
		// Overlap bounded by each area.
		return ab <= a.Area()+1e-9 && ab <= b.Area()+1e-9 && ab >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mod100(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 100)
}

func TestExpandAndPad(t *testing.T) {
	r := NewRect(10, 10, 20, 30)
	e := r.Expand(0.1)
	if !almostEq(e.Lo.X, 9) || !almostEq(e.Hi.X, 21) {
		t.Errorf("Expand x: %v", e)
	}
	if !almostEq(e.Lo.Y, 8) || !almostEq(e.Hi.Y, 32) {
		t.Errorf("Expand y: %v", e)
	}
	p := r.Pad(2)
	if !almostEq(p.Lo.X, 8) || !almostEq(p.Hi.Y, 32) {
		t.Errorf("Pad: %v", p)
	}
}

func TestUnion(t *testing.T) {
	a := NewRect(0, 0, 5, 5)
	b := NewRect(10, -3, 12, 2)
	u := a.Union(b)
	want := NewRect(0, -3, 12, 5)
	if u != want {
		t.Errorf("Union = %v, want %v", u, want)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Errorf("Clamp wrong")
	}
	if ClampInt(5, 0, 10) != 5 || ClampInt(-1, 0, 10) != 0 || ClampInt(11, 0, 10) != 10 {
		t.Errorf("ClampInt wrong")
	}
}

func TestOverlapLen(t *testing.T) {
	if got := OverlapLen(0, 10, 5, 15); !almostEq(got, 5) {
		t.Errorf("OverlapLen = %v", got)
	}
	if got := OverlapLen(0, 10, 15, 20); !almostEq(got, 0) {
		t.Errorf("disjoint OverlapLen = %v", got)
	}
	if got := OverlapLen(10, 0, 5, 15); !almostEq(got, 5) {
		t.Errorf("reversed OverlapLen = %v", got)
	}
}

func TestSegmentBasics(t *testing.T) {
	s := Segment{Point{0, 0}, Point{3, 4}}
	if !almostEq(s.Len(), 5) {
		t.Errorf("Len = %v", s.Len())
	}
	if s.Horizontal() || s.Vertical() {
		t.Errorf("diagonal segment misclassified")
	}
	h := Segment{Point{0, 2}, Point{9, 2}}
	if !h.Horizontal() {
		t.Errorf("horizontal segment not detected")
	}
	v := Segment{Point{4, 0}, Point{4, 7}}
	if !v.Vertical() {
		t.Errorf("vertical segment not detected")
	}
	mid := s.Lerp(0.5)
	if !almostEq(mid.X, 1.5) || !almostEq(mid.Y, 2) {
		t.Errorf("Lerp = %v", mid)
	}
}

func TestCutAxisSegmentHorizontal(t *testing.T) {
	s := Segment{Point{0, 5}, Point{100, 5}}
	blockers := []Rect{NewRect(20, 0, 40, 10), NewRect(60, 0, 70, 10)}
	parts := CutAxisSegment(s, blockers)
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3: %v", len(parts), parts)
	}
	wantX := [][2]float64{{0, 20}, {40, 60}, {70, 100}}
	for i, p := range parts {
		if !almostEq(p.A.X, wantX[i][0]) || !almostEq(p.B.X, wantX[i][1]) {
			t.Errorf("part %d = %v, want x-range %v", i, p, wantX[i])
		}
		if p.A.Y != 5 || p.B.Y != 5 {
			t.Errorf("part %d moved off rail", i)
		}
	}
}

func TestCutAxisSegmentVertical(t *testing.T) {
	s := Segment{Point{5, 0}, Point{5, 50}}
	blockers := []Rect{NewRect(0, 10, 10, 20)}
	parts := CutAxisSegment(s, blockers)
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(parts))
	}
	if !almostEq(parts[0].B.Y, 10) || !almostEq(parts[1].A.Y, 20) {
		t.Errorf("cut positions wrong: %v", parts)
	}
}

func TestCutAxisSegmentMisses(t *testing.T) {
	s := Segment{Point{0, 5}, Point{100, 5}}
	// Blocker does not cover the rail's y.
	parts := CutAxisSegment(s, []Rect{NewRect(20, 10, 40, 20)})
	if len(parts) != 1 || parts[0] != s {
		t.Errorf("segment should be uncut: %v", parts)
	}
}

func TestCutAxisSegmentFullyBlocked(t *testing.T) {
	s := Segment{Point{10, 5}, Point{20, 5}}
	parts := CutAxisSegment(s, []Rect{NewRect(0, 0, 100, 10)})
	if len(parts) != 0 {
		t.Errorf("fully blocked segment should vanish: %v", parts)
	}
}

func TestCutAxisSegmentTotalLengthProperty(t *testing.T) {
	// Cutting never increases total length, and pieces stay inside original span.
	f := func(bx0, bx1, bx2, bx3 float64) bool {
		s := Segment{Point{0, 5}, Point{100, 5}}
		blockers := []Rect{
			NewRect(mod100(bx0), 0, mod100(bx1), 10),
			NewRect(mod100(bx2), 0, mod100(bx3), 10),
		}
		total := 0.0
		for _, p := range CutAxisSegment(s, blockers) {
			if p.A.X < -1e-9 || p.B.X > 100+1e-9 {
				return false
			}
			total += p.Len()
		}
		return total <= s.Len()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCutDiagonalUnchanged(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 10}}
	parts := CutAxisSegment(s, []Rect{NewRect(2, 2, 8, 8)})
	if len(parts) != 1 || parts[0] != s {
		t.Errorf("diagonal segment should pass through uncut")
	}
}

// TestOverlapLenMatchesMathMinMax: OverlapLen's builtin min/max give the
// bits of the math.Min/math.Max form for finite b0, b1 and any a0, a1 —
// signed zeros, subnormals, infinities and NaN included (NaN compared as
// NaN: the two forms pick different payloads).
func TestOverlapLenMatchesMathMinMax(t *testing.T) {
	ref := func(a0, a1, b0, b1 float64) float64 {
		if a1 < a0 {
			a0, a1 = a1, a0
		}
		if b1 < b0 {
			b0, b1 = b1, b0
		}
		return math.Max(0, math.Min(a1, b1)-math.Max(a0, b0))
	}
	negZero := math.Copysign(0, -1)
	sub := math.Float64frombits(1)
	finite := []float64{0, negZero, sub, -sub, 1, -1, 2.5, 7, -3.25, 1e300, -1e300, math.MaxFloat64}
	edges := append(append([]float64(nil), finite...), math.Inf(1), math.Inf(-1), math.NaN())
	check := func(a0, a1, b0, b1 float64) {
		got, want := OverlapLen(a0, a1, b0, b1), ref(a0, a1, b0, b1)
		if math.IsNaN(want) && math.IsNaN(got) {
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("OverlapLen(%v, %v, %v, %v) = %v (%#x), math form %v (%#x)",
				a0, a1, b0, b1, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, a0 := range edges {
		for _, a1 := range edges {
			for _, b0 := range finite {
				for _, b1 := range finite {
					check(a0, a1, b0, b1)
				}
			}
		}
	}
	if err := quick.Check(func(a0, a1, b0, b1 float64) bool {
		check(a0, a1, b0, b1)
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}
