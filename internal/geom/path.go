package geom

import "fmt"

// LegOrder selects which of the two Manhattan shortest paths between two
// points an agent follows: vertical leg first (P1 in the paper) or
// horizontal leg first (P2).
type LegOrder uint8

// The two feasible L-paths of the MRWP model. The paper writes them as
//
//	P1 = ((x0,y0) -> (x0,y) -> (x,y))   vertical first
//	P2 = ((x0,y0) -> (x,y0) -> (x,y))   horizontal first
const (
	VerticalFirst LegOrder = iota + 1
	HorizontalFirst
)

// String implements fmt.Stringer.
func (o LegOrder) String() string {
	switch o {
	case VerticalFirst:
		return "vertical-first"
	case HorizontalFirst:
		return "horizontal-first"
	default:
		return fmt.Sprintf("LegOrder(%d)", uint8(o))
	}
}

// LPath is one of the two Manhattan shortest paths between Src and Dst.
// It consists of at most two axis-parallel legs; degenerate legs (zero
// length) occur when Src and Dst share a coordinate.
type LPath struct {
	Src, Dst Point
	Order    LegOrder
}

// NewLPath builds the L-path from src to dst with the given leg order.
func NewLPath(src, dst Point, order LegOrder) LPath {
	return LPath{Src: src, Dst: dst, Order: order}
}

// Corner returns the turning point of the path (where the agent performs
// the paper's "turn"). For degenerate paths the corner coincides with an
// endpoint.
func (p LPath) Corner() Point {
	if p.Order == VerticalFirst {
		return Point{p.Src.X, p.Dst.Y}
	}
	return Point{p.Dst.X, p.Src.Y}
}

// Length returns the total path length, which equals the Manhattan distance
// between the endpoints for either leg order.
func (p LPath) Length() float64 { return p.Src.ManhattanDist(p.Dst) }

// FirstLegLength returns the length of the leg travelled before the turn.
func (p LPath) FirstLegLength() float64 {
	return p.Src.ManhattanDist(p.Corner())
}

// At returns the position after travelling distance d from Src along the
// path. d is clamped into [0, Length].
func (p LPath) At(d float64) Point {
	total := p.Length()
	if d <= 0 {
		return p.Src
	}
	if d >= total {
		return p.Dst
	}
	c := p.Corner()
	first := p.Src.ManhattanDist(c)
	if d <= first {
		return lerpAxis(p.Src, c, d)
	}
	return lerpAxis(c, p.Dst, d-first)
}

// OnSecondLeg reports whether the position at travelled distance d lies
// strictly past the corner. The destination law's atomic "cross" mass comes
// exactly from agents observed on their second leg.
func (p LPath) OnSecondLeg(d float64) bool {
	return d > p.FirstLegLength()
}

// lerpAxis moves distance d from a toward b, where ab is axis-parallel.
func lerpAxis(a, b Point, d float64) Point {
	if a == b {
		return a
	}
	if a.X == b.X { // vertical
		if b.Y >= a.Y {
			return Point{a.X, a.Y + d}
		}
		return Point{a.X, a.Y - d}
	}
	// horizontal
	if b.X >= a.X {
		return Point{a.X + d, a.Y}
	}
	return Point{a.X - d, a.Y}
}

// Heading is the axis-parallel direction of motion.
type Heading uint8

// The four axis-parallel headings plus None for a stationary agent
// (Src == Dst trips).
const (
	HeadingNone Heading = iota
	HeadingEast
	HeadingWest
	HeadingNorth
	HeadingSouth
)

// String implements fmt.Stringer.
func (h Heading) String() string {
	switch h {
	case HeadingNone:
		return "none"
	case HeadingEast:
		return "east"
	case HeadingWest:
		return "west"
	case HeadingNorth:
		return "north"
	case HeadingSouth:
		return "south"
	default:
		return fmt.Sprintf("Heading(%d)", uint8(h))
	}
}

// Horizontal reports whether h is east or west.
func (h Heading) Horizontal() bool { return h == HeadingEast || h == HeadingWest }

// headingDirs holds Dir's answers, indexed by heading.
var headingDirs = [8][2]float64{
	HeadingEast:  {1, 0},
	HeadingWest:  {-1, 0},
	HeadingNorth: {0, 1},
	HeadingSouth: {0, -1},
}

// Dir returns the unit axis direction of h, (0, 0) for HeadingNone: the
// leg direction Compile caches for a leg with heading h. It is a table
// lookup, so deriving a leg's direction from its heading costs no
// data-dependent branch.
func (h Heading) Dir() (dx, dy float64) {
	d := headingDirs[h&7]
	return d[0], d[1]
}

// HeadingAt returns the direction of motion after travelling distance d
// along the path. On a leg boundary the heading of the upcoming leg is
// returned; at or past the end it returns HeadingNone.
func (p LPath) HeadingAt(d float64) Heading {
	total := p.Length()
	if total == 0 || d >= total {
		return HeadingNone
	}
	c := p.Corner()
	first := p.Src.ManhattanDist(c)
	var a, b Point
	if d < first {
		a, b = p.Src, c
	} else {
		a, b = c, p.Dst
		if a == b { // degenerate second leg
			a, b = p.Src, c
		}
	}
	return HeadingOf(a, b)
}

// HeadingOf returns the heading of the axis-parallel move from a to b
// (HeadingNone when a == b): the leg heading Compile caches. It is a table
// lookup on the four coordinate comparisons, so it costs no data-dependent
// branch.
func HeadingOf(a, b Point) Heading {
	i := bit(b.X > a.X) | bit(b.X < a.X)<<1 | bit(b.Y > a.Y)<<2 | bit(b.Y < a.Y)<<3
	return headingOfBits[i&15]
}

// headingOfBits holds HeadingOf's answers indexed by its comparison bits
// (b.X > a.X, b.X < a.X, b.Y > a.Y, b.Y < a.Y, lowest first): east beats
// west beats north beats south, and no bit set is HeadingNone.
var headingOfBits = [16]Heading{
	HeadingNone, HeadingEast, HeadingWest, HeadingEast,
	HeadingNorth, HeadingEast, HeadingWest, HeadingEast,
	HeadingSouth, HeadingEast, HeadingWest, HeadingEast,
	HeadingNorth, HeadingEast, HeadingWest, HeadingEast,
}

// bit returns 1 when c holds, else 0.
func bit(c bool) uint8 {
	var b uint8
	if c {
		b = 1
	}
	return b
}

// CompiledPath is an LPath with its derived geometry — corner, leg
// lengths, leg headings — computed once. Agent stepping interrogates the
// path geometry several times per step; the plain LPath methods recompute
// the corner and the Manhattan distances on every call, which dominates
// the simulator's per-step cost. All CompiledPath methods are exact
// drop-ins for their LPath counterparts (bit-identical results).
type CompiledPath struct {
	LPath
	// CornerPt is Corner(), cached.
	CornerPt Point
	// FirstLen is FirstLegLength(), cached.
	FirstLen float64
	// TotalLen is Length(), cached.
	TotalLen float64
	// Leg1 and Leg2 are the headings of the two legs (HeadingNone for a
	// degenerate leg).
	Leg1, Leg2 Heading
	// D1X/D1Y and D2X/D2Y are the unit direction components of the two
	// legs (each is -1, 0 or +1; both zero on a degenerate leg). With
	// them At(d) is pure multiply-add: axis-parallel legs advance by
	// exactly the travelled distance, and a.Y + d*(-1) == a.Y - d
	// bit-for-bit, so the cached form reproduces lerpAxis exactly.
	D1X, D1Y, D2X, D2Y float64
}

// Compile caches the derived geometry of p.
func Compile(p LPath) CompiledPath {
	c := p.Corner()
	leg1, leg2 := HeadingOf(p.Src, c), HeadingOf(c, p.Dst)
	d1x, d1y := leg1.Dir()
	d2x, d2y := leg2.Dir()
	return CompiledPath{
		LPath:    p,
		CornerPt: c,
		FirstLen: p.Src.ManhattanDist(c),
		TotalLen: p.Src.ManhattanDist(p.Dst),
		Leg1:     leg1,
		Leg2:     leg2,
		D1X:      d1x,
		D1Y:      d1y,
		D2X:      d2x,
		D2Y:      d2y,
	}
}

// At is LPath.At using the cached geometry.
func (c *CompiledPath) At(d float64) Point {
	if d <= 0 {
		return c.Src
	}
	if d >= c.TotalLen {
		return c.Dst
	}
	if d <= c.FirstLen {
		return Point{c.Src.X + d*c.D1X, c.Src.Y + d*c.D1Y}
	}
	u := d - c.FirstLen
	return Point{c.CornerPt.X + u*c.D2X, c.CornerPt.Y + u*c.D2Y}
}

// HeadingAt is LPath.HeadingAt using the cached geometry.
func (c *CompiledPath) HeadingAt(d float64) Heading {
	if c.TotalLen == 0 || d >= c.TotalLen {
		return HeadingNone
	}
	if d < c.FirstLen {
		return c.Leg1
	}
	if c.Leg2 == HeadingNone { // degenerate second leg
		return c.Leg1
	}
	return c.Leg2
}

// OnSecondLeg is LPath.OnSecondLeg using the cached geometry.
func (c *CompiledPath) OnSecondLeg(d float64) bool { return d > c.FirstLen }

// HeadingInto returns the direction of travel as the path arrives at its
// destination: the last non-degenerate leg's heading (HeadingNone for a
// zero-length path). A degenerate second leg means the corner is Dst, so
// the first leg's heading is the heading from Src to Dst; HeadingInto
// reads only the two leg headings.
func (c *CompiledPath) HeadingInto() Heading {
	if c.Leg2 != HeadingNone {
		return c.Leg2
	}
	return c.Leg1
}
