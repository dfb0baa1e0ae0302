// Package geo provides the planar geometry primitives used throughout the
// non-exposure cloaking system: points in the unit square, axis-aligned
// rectangles (cloaked regions), and distance computations.
//
// All coordinates are float64 and, after dataset normalization, lie in
// [0, 1] × [0, 1]. Rectangles are closed on all sides.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Sqrt(p.DistSq(q))
}

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison key in hot loops.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.X, p.Y)
}

// Rect is a closed axis-aligned rectangle. A Rect is valid when
// Min.X <= Max.X and Min.Y <= Max.Y. The zero Rect is the degenerate
// rectangle containing only the origin.
type Rect struct {
	Min, Max Point
}

// RectFrom returns the smallest rectangle containing all given points.
// It panics if pts is empty.
func RectFrom(pts ...Point) Rect {
	if len(pts) == 0 {
		panic("geo: RectFrom requires at least one point")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.ExpandToInclude(p)
	}
	return r
}

// EmptyRect returns a canonical "empty" rectangle that acts as the identity
// for Union via ExpandToInclude-style accumulation: its Min is +Inf and its
// Max is -Inf, so the first real point replaces both corners.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{
		Min: Point{X: inf, Y: inf},
		Max: Point{X: -inf, Y: -inf},
	}
}

// IsEmpty reports whether r is the canonical empty rectangle (or any
// inverted rectangle with Min > Max on either axis).
func (r Rect) IsEmpty() bool {
	return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y
}

// Width returns the extent of r along the x axis (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the extent of r along the y axis (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Area returns the area of r (0 for empty rectangles).
func (r Rect) Area() float64 {
	return r.Width() * r.Height()
}

// Perimeter returns the perimeter of r (0 for empty rectangles).
func (r Rect) Perimeter() float64 {
	if r.IsEmpty() {
		return 0
	}
	return 2 * (r.Width() + r.Height())
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (boundaries included).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r. An empty s is
// contained in everything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Intersection returns the overlap of r and s, or an empty rectangle when
// they do not intersect.
func (r Rect) Intersection(s Rect) Rect {
	if !r.Intersects(s) {
		return EmptyRect()
	}
	return Rect{
		Min: Point{X: math.Max(r.Min.X, s.Min.X), Y: math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{X: math.Min(r.Max.X, s.Max.X), Y: math.Min(r.Max.Y, s.Max.Y)},
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{X: math.Min(r.Min.X, s.Min.X), Y: math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{X: math.Max(r.Max.X, s.Max.X), Y: math.Max(r.Max.Y, s.Max.Y)},
	}
}

// ExpandToInclude returns the smallest rectangle containing r and p.
func (r Rect) ExpandToInclude(p Point) Rect {
	if r.IsEmpty() {
		return Rect{Min: p, Max: p}
	}
	return Rect{
		Min: Point{X: math.Min(r.Min.X, p.X), Y: math.Min(r.Min.Y, p.Y)},
		Max: Point{X: math.Max(r.Max.X, p.X), Y: math.Max(r.Max.Y, p.Y)},
	}
}

// Inflate returns r grown by d on every side. Negative d shrinks r; the
// result may become empty.
func (r Rect) Inflate(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	out := Rect{
		Min: Point{X: r.Min.X - d, Y: r.Min.Y - d},
		Max: Point{X: r.Max.X + d, Y: r.Max.Y + d},
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Clamp returns r intersected with the unit square [0,1]².
func (r Rect) Clamp() Rect {
	return r.Intersection(UnitSquare())
}

// MinDistSq returns the squared distance from p to the nearest point of r.
// It is 0 when r contains p.
func (r Rect) MinDistSq(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return dx*dx + dy*dy
}

// MaxDistSq returns the squared distance from p to the farthest point of r.
func (r Rect) MaxDistSq(p Point) float64 {
	if r.IsEmpty() {
		return 0
	}
	dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	if r.IsEmpty() {
		return "Rect(empty)"
	}
	return fmt.Sprintf("Rect[%s - %s]", r.Min, r.Max)
}

// UnitSquare returns the rectangle [0,1] × [0,1] that normalized datasets
// live in.
func UnitSquare() Rect {
	return Rect{Min: Point{0, 0}, Max: Point{1, 1}}
}
