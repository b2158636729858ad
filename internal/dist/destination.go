package dist

import (
	"fmt"
	"math/rand/v2"

	"manhattanflood/internal/geom"
)

// Arm identifies one of the four arms of Theorem 2's destination "cross":
// the destinations sharing a coordinate with the agent's position, reached
// by agents observed on their final leg.
type Arm uint8

// The four cross arms, named by where the destination lies relative to the
// agent's position.
const (
	ArmSouth Arm = iota
	ArmWest
	ArmNorth
	ArmEast
)

// String implements fmt.Stringer.
func (a Arm) String() string {
	switch a {
	case ArmSouth:
		return "south"
	case ArmWest:
		return "west"
	case ArmNorth:
		return "north"
	case ArmEast:
		return "east"
	default:
		return fmt.Sprintf("Arm(%d)", uint8(a))
	}
}

// Quadrant identifies one of the four open quadrants relative to the
// agent's position; destinations there belong to agents observed on their
// first leg.
type Quadrant uint8

// The four quadrants by compass corner.
const (
	QuadrantSW Quadrant = iota
	QuadrantNW
	QuadrantNE
	QuadrantSE
)

// String implements fmt.Stringer.
func (q Quadrant) String() string {
	switch q {
	case QuadrantSW:
		return "SW"
	case QuadrantNW:
		return "NW"
	case QuadrantNE:
		return "NE"
	case QuadrantSE:
		return "SE"
	default:
		return fmt.Sprintf("Quadrant(%d)", uint8(q))
	}
}

// Destination is Theorem 2's law of the destination of an agent observed at
// a fixed stationary position (x, y). Writing X* = x(L-x), Y* = y(L-y) and
// W = X* + Y*, the law decomposes into
//
//   - an atomic cross of total mass exactly 1/2: each vertical arm (same x)
//     carries mass Y*/(4W) with the destination uniform along the arm, each
//     horizontal arm carries X*/(4W);
//   - four quadrant components, uniform within each quadrant rectangle,
//     with masses (Eq. 3)
//     NE: (x+y)(L-x)(L-y)/(4LW)        NW: (L-x+y) x (L-y)/(4LW)
//     SW: (2L-x-y) x y/(4LW)           SE: (x+L-y)(L-x) y/(4LW).
//
// The quadrant weights are the Palm first-leg weights: an agent heading
// east has its source in [0, x] (weight x), etc.
type Destination struct {
	l   float64
	pos geom.Point
	arm [4]float64 // unconditional masses, indexed by Arm
	qd  [4]float64 // unconditional masses, indexed by Quadrant
}

// NewDestination creates the Theorem 2 law for an agent at pos in the
// square of side l. The law is undefined exactly at the four corners
// (a zero-probability position under Theorem 1).
func NewDestination(l float64, pos geom.Point) (*Destination, error) {
	if err := validSide(l); err != nil {
		return nil, err
	}
	if pos.X < 0 || pos.X > l || pos.Y < 0 || pos.Y > l {
		return nil, fmt.Errorf("dist: position %v outside [0, %v]^2", pos, l)
	}
	xs := pos.X * (l - pos.X)
	ys := pos.Y * (l - pos.Y)
	w := xs + ys
	if w == 0 {
		return nil, fmt.Errorf("dist: destination law undefined at corner %v", pos)
	}
	d := &Destination{l: l, pos: pos}
	d.arm[ArmSouth] = ys / (4 * w)
	d.arm[ArmNorth] = ys / (4 * w)
	d.arm[ArmWest] = xs / (4 * w)
	d.arm[ArmEast] = xs / (4 * w)
	x, y := pos.X, pos.Y
	d.qd[QuadrantNE] = (x + y) * (l - x) * (l - y) / (4 * l * w)
	d.qd[QuadrantNW] = (l - x + y) * x * (l - y) / (4 * l * w)
	d.qd[QuadrantSW] = (2*l - x - y) * x * y / (4 * l * w)
	d.qd[QuadrantSE] = (x + l - y) * (l - x) * y / (4 * l * w)
	return d, nil
}

// Pos returns the conditioning position.
func (d *Destination) Pos() geom.Point { return d.pos }

// CrossMass returns the total atomic mass of the cross; Theorem 2 proves it
// is exactly 1/2 for every interior position.
func (d *Destination) CrossMass() float64 {
	return d.arm[0] + d.arm[1] + d.arm[2] + d.arm[3]
}

// ArmProb returns the unconditional probability that the destination lies
// on the given cross arm (the phi of Eqs. 4-5).
func (d *Destination) ArmProb(a Arm) float64 {
	if int(a) >= len(d.arm) {
		return 0
	}
	return d.arm[a]
}

// QuadrantMass returns the unconditional probability that the destination
// lies in the given open quadrant (Eq. 3).
func (d *Destination) QuadrantMass(q Quadrant) float64 {
	if int(q) >= len(d.qd) {
		return 0
	}
	return d.qd[q]
}

// Sample draws a destination. onCross reports whether it lies on the cross
// (the agent is on its final leg); otherwise it is strictly inside a
// quadrant (the agent is on its first leg, heading distributed per
// HeadingGivenQuadrant).
func (d *Destination) Sample(src rand.Source) (dst geom.Point, onCross bool) {
	u := Float64(src)
	x, y, l := d.pos.X, d.pos.Y, d.l
	for a := ArmSouth; a <= ArmEast; a++ {
		if u < d.arm[a] {
			switch a {
			case ArmSouth:
				return geom.Pt(x, Float64(src)*y), true
			case ArmWest:
				return geom.Pt(Float64(src)*x, y), true
			case ArmNorth:
				return geom.Pt(x, y+Float64(src)*(l-y)), true
			default: // ArmEast
				return geom.Pt(x+Float64(src)*(l-x), y), true
			}
		}
		u -= d.arm[a]
	}
	for q := QuadrantSW; q <= QuadrantSE; q++ {
		if u < d.qd[q] || q == QuadrantSE {
			var px, py float64
			switch q {
			case QuadrantSW:
				px, py = Float64(src)*x, Float64(src)*y
			case QuadrantNW:
				px, py = Float64(src)*x, y+Float64(src)*(l-y)
			case QuadrantNE:
				px, py = x+Float64(src)*(l-x), y+Float64(src)*(l-y)
			default: // QuadrantSE
				px, py = x+Float64(src)*(l-x), Float64(src)*y
			}
			return geom.Pt(px, py), false
		}
		u -= d.qd[q]
	}
	// Unreachable: the masses sum to 1.
	return d.pos, false
}

// HeadingGivenQuadrant draws the agent's current heading given that its
// destination dst lies in an open quadrant. The agent is on its first leg;
// by the Palm decomposition the horizontal-heading weight is the measure of
// sources behind the position along x (x when heading east, L-x when
// heading west), and symmetrically for vertical.
func (d *Destination) HeadingGivenQuadrant(src rand.Source, dst geom.Point) geom.Heading {
	x, y, l := d.pos.X, d.pos.Y, d.l
	hw := l - x // heading west: sources in [x, L]
	if dst.X > x {
		hw = x // heading east: sources in [0, x]
	}
	vw := l - y
	if dst.Y > y {
		vw = y
	}
	if Float64(src)*(hw+vw) < hw {
		if dst.X > x {
			return geom.HeadingEast
		}
		return geom.HeadingWest
	}
	if dst.Y > y {
		return geom.HeadingNorth
	}
	return geom.HeadingSouth
}
