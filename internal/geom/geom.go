// Package geom provides the small set of planar-geometry primitives used
// throughout the placer: points, rectangles, overlap computation, interval
// clipping and segment cutting. All coordinates are float64 in database
// units (DBU); the placer treats one DBU as one site-width-independent unit.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the placement plane.
type Point struct {
	X, Y float64
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q treated as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with Lo the lower-left corner and Hi the
// upper-right corner. A Rect with Hi.X <= Lo.X or Hi.Y <= Lo.Y is empty.
type Rect struct {
	Lo, Hi Point
}

// NewRect builds the rectangle spanning the two corner points in any order.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// W returns the width of r (zero for empty rectangles).
func (r Rect) W() float64 { return math.Max(0, r.Hi.X-r.Lo.X) }

// H returns the height of r (zero for empty rectangles).
func (r Rect) H() float64 { return math.Max(0, r.Hi.Y-r.Lo.Y) }

// Area returns the area of r (zero for empty rectangles).
func (r Rect) Area() float64 { return r.W() * r.H() }

// Empty reports whether r has zero area.
func (r Rect) Empty() bool { return r.Hi.X <= r.Lo.X || r.Hi.Y <= r.Lo.Y }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether p lies inside r (closed on the low edges, open on
// the high edges, the convention used for bin membership).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X < r.Hi.X && p.Y >= r.Lo.Y && p.Y < r.Hi.Y
}

// ContainsClosed reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsClosed(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// Intersect returns the intersection of r and s; the result may be empty.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		Point{math.Max(r.Lo.X, s.Lo.X), math.Max(r.Lo.Y, s.Lo.Y)},
		Point{math.Min(r.Hi.X, s.Hi.X), math.Min(r.Hi.Y, s.Hi.Y)},
	}
}

// Overlap returns the overlap area of r and s.
func (r Rect) Overlap(s Rect) float64 { return r.Intersect(s).Area() }

// Intersects reports whether r and s share positive area.
func (r Rect) Intersects(s Rect) bool { return !r.Intersect(s).Empty() }

// Expand grows r by fraction f of its width/height on every side; f may be
// negative to shrink. Used for the paper's 10% macro bounding-box expansion.
func (r Rect) Expand(f float64) Rect {
	dx, dy := r.W()*f, r.H()*f
	return Rect{Point{r.Lo.X - dx, r.Lo.Y - dy}, Point{r.Hi.X + dx, r.Hi.Y + dy}}
}

// Pad grows r by the absolute margin m on every side.
func (r Rect) Pad(m float64) Rect {
	return Rect{Point{r.Lo.X - m, r.Lo.Y - m}, Point{r.Hi.X + m, r.Hi.Y + m}}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Lo, r.Hi)
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt limits v to the closed interval [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// OverlapLen returns the length of the intersection of the 1-D intervals
// [a0,a1] and [b0,b1]. Intervals may be given in any order.
//
// The builtin min/max give math.Min/math.Max's bits except when one argument
// is NaN and the other infinite (and in a NaN's payload); with finite b0, b1,
// as every bin-overlap caller passes, the results are identical.
func OverlapLen(a0, a1, b0, b1 float64) float64 {
	if a1 < a0 {
		a0, a1 = a1, a0
	}
	if b1 < b0 {
		b0, b1 = b1, b0
	}
	return max(0, min(a1, b1)-max(a0, b0))
}

// Segment is a straight line segment between two points. PG rails and two-pin
// net chords are segments.
type Segment struct {
	A, B Point
}

// Len returns the Euclidean length of s.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Horizontal reports whether s runs along the x axis.
func (s Segment) Horizontal() bool { return s.A.Y == s.B.Y }

// Vertical reports whether s runs along the y axis.
func (s Segment) Vertical() bool { return s.A.X == s.B.X }

// CutAxisSegment removes the parts of an axis-aligned segment that fall inside
// any of the blockers, returning the surviving sub-segments in order. It is
// used by PG-rail selection: rails are cut by expanded macro bounding boxes
// (paper Sec. III-C step 1). Non-axis-aligned segments are returned uncut.
func CutAxisSegment(s Segment, blockers []Rect) []Segment {
	switch {
	case s.Horizontal():
		y := s.A.Y
		lo, hi := math.Min(s.A.X, s.B.X), math.Max(s.A.X, s.B.X)
		ivs := cutInterval(lo, hi, func(r Rect) (float64, float64, bool) {
			if y < r.Lo.Y || y > r.Hi.Y {
				return 0, 0, false
			}
			return r.Lo.X, r.Hi.X, true
		}, blockers)
		out := make([]Segment, 0, len(ivs))
		for _, iv := range ivs {
			out = append(out, Segment{Point{iv[0], y}, Point{iv[1], y}})
		}
		return out
	case s.Vertical():
		x := s.A.X
		lo, hi := math.Min(s.A.Y, s.B.Y), math.Max(s.A.Y, s.B.Y)
		ivs := cutInterval(lo, hi, func(r Rect) (float64, float64, bool) {
			if x < r.Lo.X || x > r.Hi.X {
				return 0, 0, false
			}
			return r.Lo.Y, r.Hi.Y, true
		}, blockers)
		out := make([]Segment, 0, len(ivs))
		for _, iv := range ivs {
			out = append(out, Segment{Point{x, iv[0]}, Point{x, iv[1]}})
		}
		return out
	default:
		return []Segment{s}
	}
}

// cutInterval subtracts, from [lo,hi], every blocker interval produced by
// proj, returning the remaining sub-intervals in increasing order.
func cutInterval(lo, hi float64, proj func(Rect) (float64, float64, bool), blockers []Rect) [][2]float64 {
	live := [][2]float64{{lo, hi}}
	for _, r := range blockers {
		blo, bhi, ok := proj(r)
		if !ok {
			continue
		}
		var next [][2]float64
		for _, iv := range live {
			// Left remainder.
			if iv[0] < blo {
				next = append(next, [2]float64{iv[0], math.Min(iv[1], blo)})
			}
			// Right remainder.
			if iv[1] > bhi {
				next = append(next, [2]float64{math.Max(iv[0], bhi), iv[1]})
			}
		}
		live = next
		if len(live) == 0 {
			break
		}
	}
	// Drop zero-length slivers.
	out := live[:0]
	for _, iv := range live {
		if iv[1] > iv[0] {
			out = append(out, iv)
		}
	}
	return out
}
