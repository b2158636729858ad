package geom

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Compile's cached leg-direction form of At must be bit-identical to the
// plain LPath methods for every distance, including leg boundaries and
// degenerate legs — sim trajectories ride on this equivalence.
func TestCompiledPathMatchesLPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 17))
	const l = 10.0
	paths := []LPath{
		NewLPath(Pt(1, 2), Pt(7, 5), VerticalFirst),
		NewLPath(Pt(1, 2), Pt(7, 5), HorizontalFirst),
		NewLPath(Pt(3, 3), Pt(3, 9), VerticalFirst),   // degenerate horizontal leg
		NewLPath(Pt(3, 3), Pt(9, 3), HorizontalFirst), // degenerate vertical leg
		NewLPath(Pt(4, 4), Pt(4, 4), VerticalFirst),   // zero-length path
		NewLPath(Pt(8, 9), Pt(1, 0), VerticalFirst),   // west/south directions
		NewLPath(Pt(8, 9), Pt(1, 0), HorizontalFirst),
	}
	for i := 0; i < 200; i++ {
		src := Pt(rng.Float64()*l, rng.Float64()*l)
		dst := Pt(rng.Float64()*l, rng.Float64()*l)
		order := VerticalFirst
		if rng.Float64() < 0.5 {
			order = HorizontalFirst
		}
		paths = append(paths, NewLPath(src, dst, order))
	}
	for _, p := range paths {
		c := Compile(p)
		total := p.Length()
		ds := []float64{
			-1, 0, total, total + 1,
			p.FirstLegLength(),               // corner boundary
			p.FirstLegLength() * 0.999999999, // just before the corner
		}
		for i := 0; i < 50; i++ {
			ds = append(ds, rng.Float64()*total)
		}
		for _, d := range ds {
			if got, want := c.At(d), p.At(d); got != want {
				t.Fatalf("path %+v: At(%v) = %v, LPath.At = %v", p, d, got, want)
			}
			if got, want := c.HeadingAt(d), p.HeadingAt(d); got != want {
				t.Fatalf("path %+v: HeadingAt(%v) = %v, LPath.HeadingAt = %v", p, d, got, want)
			}
			if got, want := c.OnSecondLeg(d), p.OnSecondLeg(d); got != want {
				t.Fatalf("path %+v: OnSecondLeg(%v) = %v, LPath = %v", p, d, got, want)
			}
		}
		// HeadingInto reads only the leg headings; it must still be the
		// heading from the last non-degenerate leg's start to Dst.
		into := HeadingOf(p.Corner(), p.Dst)
		if into == HeadingNone {
			into = HeadingOf(p.Src, p.Dst)
		}
		if got := c.HeadingInto(); got != into {
			t.Fatalf("path %+v: HeadingInto = %v, want %v", p, got, into)
		}
		// The direction cache must hold unit axis vectors consistent with
		// the leg headings.
		if c.D1X*c.D1Y != 0 || c.D2X*c.D2Y != 0 {
			t.Fatalf("path %+v: leg directions not axis-parallel: (%v,%v) (%v,%v)",
				p, c.D1X, c.D1Y, c.D2X, c.D2Y)
		}
	}
}

// headingOfSwitch is HeadingOf as a chain of comparisons: the reference
// for the table lookup.
func headingOfSwitch(a, b Point) Heading {
	switch {
	case b.X > a.X:
		return HeadingEast
	case b.X < a.X:
		return HeadingWest
	case b.Y > a.Y:
		return HeadingNorth
	case b.Y < a.Y:
		return HeadingSouth
	default:
		return HeadingNone
	}
}

// TestHeadingOfMatchesSwitch checks the table-driven HeadingOf against
// the comparison chain on every pairing of a small coordinate set, with
// signed zeros, infinities and NaN among the coordinates.
func TestHeadingOfMatchesSwitch(t *testing.T) {
	coords := []float64{-1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1), math.NaN()}
	for _, ax := range coords {
		for _, ay := range coords {
			for _, bx := range coords {
				for _, by := range coords {
					a, b := Pt(ax, ay), Pt(bx, by)
					if got, want := HeadingOf(a, b), headingOfSwitch(a, b); got != want {
						t.Fatalf("HeadingOf(%v, %v) = %v, want %v", a, b, got, want)
					}
				}
			}
		}
	}
}
