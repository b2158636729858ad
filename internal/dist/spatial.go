package dist

import (
	"math"
	"math/rand/v2"

	"manhattanflood/internal/geom"
)

// Spatial is Theorem 1's stationary spatial distribution over [0, L]^2:
//
//	f(x, y) = (3 / L^2) ( u (1 - u) + w (1 - w) ),   u = x/L, w = y/L.
//
// It is the sum of two independent marginal shapes: each coordinate is,
// with probability 1/2, Beta(2,2)-distributed (the coordinate the agent
// travels along less) and uniform otherwise.
type Spatial struct {
	l float64
}

// NewSpatial creates the Theorem 1 law for a square of side l.
func NewSpatial(l float64) (Spatial, error) {
	if err := validSide(l); err != nil {
		return Spatial{}, err
	}
	return Spatial{l: l}, nil
}

// Side returns the square side L.
func (s Spatial) Side() float64 { return s.l }

// Density evaluates f(x, y); it is zero outside the square.
func (s Spatial) Density(x, y float64) float64 {
	if x < 0 || x > s.l || y < 0 || y > s.l {
		return 0
	}
	u := x / s.l
	w := y / s.l
	return 3 * (u*(1-u) + w*(1-w)) / (s.l * s.l)
}

// primitive is G(t) = int_0^t (t'/L)(1 - t'/L) dt', the one-dimensional
// primitive of the density's coordinate shape.
func (s Spatial) primitive(t float64) float64 {
	if t < 0 {
		t = 0
	}
	if t > s.l {
		t = s.l
	}
	return t*t/(2*s.l) - t*t*t/(3*s.l*s.l)
}

// RectMass returns the stationary probability mass of r intersected with
// the square. The closed form follows from Fubini:
//
//	mass = (3/L^2) [ (y1-y0)(G(x1)-G(x0)) + (x1-x0)(G(y1)-G(y0)) ].
func (s Spatial) RectMass(r geom.Rect) float64 {
	x0 := math.Max(r.MinX, 0)
	y0 := math.Max(r.MinY, 0)
	x1 := math.Min(r.MaxX, s.l)
	y1 := math.Min(r.MaxY, s.l)
	if x0 >= x1 || y0 >= y1 {
		return 0
	}
	gx := s.primitive(x1) - s.primitive(x0)
	gy := s.primitive(y1) - s.primitive(y0)
	return 3 * ((y1-y0)*gx + (x1-x0)*gy) / (s.l * s.l)
}

// CellMass returns the mass of the axis-aligned square cell with south-west
// corner (x0, y0) and the given side.
func (s Spatial) CellMass(x0, y0, side float64) float64 {
	return s.RectMass(geom.Square(geom.Pt(x0, y0), side))
}

// Sample draws a point distributed by f. The density decomposes as the
// even mixture of (Beta(2,2) x Uniform) and (Uniform x Beta(2,2)); a
// Beta(2,2) variate is the median of three independent uniforms.
func (s Spatial) Sample(src rand.Source) geom.Point {
	if Float64(src) < 0.5 {
		return geom.Pt(s.l*median3(src), s.l*Float64(src))
	}
	return geom.Pt(s.l*Float64(src), s.l*median3(src))
}

// median3 returns the median of three independent U(0,1) variates, whose
// density is exactly 6 u (1-u) — Beta(2,2).
func median3(src rand.Source) float64 {
	a, b, c := Float64(src), Float64(src), Float64(src)
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}
