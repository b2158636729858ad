package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/geom"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0xd157)) }

func TestNewSpatialErrors(t *testing.T) {
	for _, l := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewSpatial(l); err == nil {
			t.Errorf("NewSpatial(%v): want error", l)
		}
	}
	if _, err := NewSpatial(2.5); err != nil {
		t.Errorf("valid side rejected: %v", err)
	}
}

func TestDensityClosedForm(t *testing.T) {
	sp, err := NewSpatial(10)
	if err != nil {
		t.Fatal(err)
	}
	// Center: 3 (1/4 + 1/4) / L^2 = 1.5 / L^2.
	if got := sp.Density(5, 5); math.Abs(got-0.015) > 1e-15 {
		t.Errorf("center density = %v, want 0.015", got)
	}
	// Corners are empty; edge midpoints are half the center.
	if got := sp.Density(0, 0); got != 0 {
		t.Errorf("corner density = %v, want 0", got)
	}
	if got := sp.Density(5, 0); math.Abs(got-0.0075) > 1e-15 {
		t.Errorf("edge density = %v, want 0.0075", got)
	}
	// Outside the square.
	if got := sp.Density(-1, 5); got != 0 {
		t.Errorf("outside density = %v, want 0", got)
	}
	// Symmetries: f(x,y) = f(y,x) = f(L-x,y).
	for _, pq := range [][2]float64{{1, 3}, {2.5, 7}, {9, 0.5}} {
		x, y := pq[0], pq[1]
		if math.Abs(sp.Density(x, y)-sp.Density(y, x)) > 1e-15 {
			t.Errorf("f(%v,%v) != f(%v,%v)", x, y, y, x)
		}
		if math.Abs(sp.Density(x, y)-sp.Density(10-x, y)) > 1e-12 {
			t.Errorf("f not mirror-symmetric at (%v,%v)", x, y)
		}
	}
}

func TestRectMassNormalizationAndQuadrature(t *testing.T) {
	sp, err := NewSpatial(7)
	if err != nil {
		t.Fatal(err)
	}
	full := sp.RectMass(geom.Square(geom.Pt(0, 0), 7))
	if math.Abs(full-1) > 1e-12 {
		t.Errorf("full-square mass = %v, want 1", full)
	}
	// RectMass must agree with midpoint quadrature of Density.
	rng := testRNG(1)
	for trial := 0; trial < 10; trial++ {
		a := geom.Pt(rng.Float64()*7, rng.Float64()*7)
		b := geom.Pt(rng.Float64()*7, rng.Float64()*7)
		r := geom.NewRect(a, b)
		const steps = 400
		dx := r.Width() / steps
		dy := r.Height() / steps
		var q float64
		for i := 0; i < steps; i++ {
			for j := 0; j < steps; j++ {
				q += sp.Density(r.MinX+(float64(i)+0.5)*dx, r.MinY+(float64(j)+0.5)*dy)
			}
		}
		q *= dx * dy
		if got := sp.RectMass(r); math.Abs(got-q) > 1e-4 {
			t.Errorf("rect %v: RectMass %v, quadrature %v", r, got, q)
		}
	}
	// Clipping: rects poking outside the square count only the inside.
	if got := sp.RectMass(geom.NewRect(geom.Pt(-5, -5), geom.Pt(12, 12))); math.Abs(got-1) > 1e-12 {
		t.Errorf("clipped full mass = %v, want 1", got)
	}
	if got := sp.RectMass(geom.NewRect(geom.Pt(8, 8), geom.Pt(9, 9))); got != 0 {
		t.Errorf("fully outside mass = %v, want 0", got)
	}
}

// chiSquareGrid bins samples on a k x k grid and compares against the
// closed-form cell masses, returning the total variation distance.
func tvDistance(t *testing.T, samples []geom.Point, sp Spatial, l float64, k int) float64 {
	t.Helper()
	counts := make([]float64, k*k)
	cell := l / float64(k)
	for _, p := range samples {
		ix := int(p.X / cell)
		iy := int(p.Y / cell)
		if ix >= k {
			ix = k - 1
		}
		if iy >= k {
			iy = k - 1
		}
		counts[iy*k+ix]++
	}
	var tv float64
	n := float64(len(samples))
	for iy := 0; iy < k; iy++ {
		for ix := 0; ix < k; ix++ {
			want := sp.CellMass(float64(ix)*cell, float64(iy)*cell, cell)
			tv += math.Abs(counts[iy*k+ix]/n - want)
		}
	}
	return tv / 2
}

func TestSpatialSampleMatchesDensity(t *testing.T) {
	const l = 4.0
	sp, err := NewSpatial(l)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(2)
	const n = 200000
	samples := make([]geom.Point, n)
	for i := range samples {
		samples[i] = sp.Sample(rng)
	}
	if tv := tvDistance(t, samples, sp, l, 8); tv > 0.01 {
		t.Errorf("sampler TV distance from density = %v, want < 0.01", tv)
	}
}

// The Palm trip sampler's position marginal must be exactly Theorem 1 —
// the identity that makes perfect simulation work.
func TestTripSamplerPositionMarginal(t *testing.T) {
	const l = 4.0
	ts, err := NewTripSampler(l)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := NewSpatial(l)
	rng := testRNG(3)
	const n = 200000
	samples := make([]geom.Point, n)
	for i := range samples {
		tr := ts.Sample(rng)
		samples[i] = tr.Pos()
		if tr.Travelled < 0 || tr.Travelled > tr.Path.Length()+1e-12 {
			t.Fatalf("travelled %v outside [0, %v]", tr.Travelled, tr.Path.Length())
		}
	}
	if tv := tvDistance(t, samples, sp, l, 8); tv > 0.01 {
		t.Errorf("trip-position TV distance from Theorem 1 = %v, want < 0.01", tv)
	}
}

func TestTripSamplerLengthBias(t *testing.T) {
	// Mean trip length under the Palm law is E[len^2]/E[len]; for the
	// Manhattan metric on the unit square E[len] = 2/3 and E[len^2] =
	// 2*Var(|U-U'|) terms: E[(lx+ly)^2] = 2*E[l^2] + 2 E[l]^2 with
	// E[l^2] = 1/6, E[l] = 1/3, so E[len^2] = 1/3 + 2/9 = 5/9 and the
	// biased mean is (5/9)/(2/3) = 5/6.
	ts, err := NewTripSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(4)
	var sum float64
	const n = 300000
	for i := 0; i < n; i++ {
		sum += ts.Sample(rng).Path.Length()
	}
	mean := sum / n
	if math.Abs(mean-5.0/6.0) > 0.005 {
		t.Errorf("biased mean trip length = %v, want 5/6", mean)
	}
}

func TestDestinationMasses(t *testing.T) {
	const l = 1.0
	d, err := NewDestination(l, geom.Pt(l/3, l/4))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CrossMass(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cross mass = %v, want exactly 1/2", got)
	}
	var total float64
	for _, a := range []Arm{ArmSouth, ArmWest, ArmNorth, ArmEast} {
		p := d.ArmProb(a)
		if p <= 0 || p >= 0.5 {
			t.Errorf("arm %v probability %v outside (0, 0.5)", a, p)
		}
		total += p
	}
	for _, q := range []Quadrant{QuadrantSW, QuadrantNW, QuadrantNE, QuadrantSE} {
		m := d.QuadrantMass(q)
		if m <= 0 || m >= 0.5 {
			t.Errorf("quadrant %v mass %v outside (0, 0.5)", q, m)
		}
		total += m
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("destination law total mass = %v, want 1", total)
	}
	// North/south arms carry equal mass, as do east/west (Theorem 2).
	if math.Abs(d.ArmProb(ArmNorth)-d.ArmProb(ArmSouth)) > 1e-15 {
		t.Error("north and south arm masses differ")
	}
	if math.Abs(d.ArmProb(ArmEast)-d.ArmProb(ArmWest)) > 1e-15 {
		t.Error("east and west arm masses differ")
	}
}

func TestNewDestinationErrors(t *testing.T) {
	if _, err := NewDestination(0, geom.Pt(0, 0)); err == nil {
		t.Error("want side error")
	}
	if _, err := NewDestination(1, geom.Pt(2, 0.5)); err == nil {
		t.Error("want out-of-square error")
	}
	for _, c := range []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)} {
		if _, err := NewDestination(1, c); err == nil {
			t.Errorf("corner %v: want undefined-law error", c)
		}
	}
	// Edges (non-corner) are fine.
	if _, err := NewDestination(1, geom.Pt(0.5, 0)); err != nil {
		t.Errorf("edge position rejected: %v", err)
	}
}

func TestDestinationSampleMatchesMasses(t *testing.T) {
	const l = 1.0
	pos := geom.Pt(l/3, l/4)
	d, err := NewDestination(l, pos)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(5)
	const n = 400000
	armCount := map[Arm]int{}
	quadCount := map[Quadrant]int{}
	cross := 0
	for i := 0; i < n; i++ {
		dst, onCross := d.Sample(rng)
		if onCross {
			cross++
			switch {
			case dst.X == pos.X && dst.Y < pos.Y:
				armCount[ArmSouth]++
			case dst.X == pos.X:
				armCount[ArmNorth]++
			case dst.Y == pos.Y && dst.X < pos.X:
				armCount[ArmWest]++
			default:
				armCount[ArmEast]++
			}
			continue
		}
		switch {
		case dst.X < pos.X && dst.Y < pos.Y:
			quadCount[QuadrantSW]++
		case dst.X < pos.X:
			quadCount[QuadrantNW]++
		case dst.Y > pos.Y:
			quadCount[QuadrantNE]++
		default:
			quadCount[QuadrantSE]++
		}
	}
	if got := float64(cross) / n; math.Abs(got-0.5) > 0.005 {
		t.Errorf("sampled cross fraction = %v, want 0.5", got)
	}
	for a, c := range armCount {
		if got, want := float64(c)/n, d.ArmProb(a); math.Abs(got-want) > 0.005 {
			t.Errorf("arm %v: sampled %v, closed form %v", a, got, want)
		}
	}
	for q, c := range quadCount {
		if got, want := float64(c)/n, d.QuadrantMass(q); math.Abs(got-want) > 0.005 {
			t.Errorf("quadrant %v: sampled %v, closed form %v", q, got, want)
		}
	}
}

// The destination law must agree with Monte-Carlo over the trip sampler
// conditioned on the position landing near the reference point — the
// consistency check tying Theorem 2 to the Palm law.
func TestDestinationMatchesTripSampler(t *testing.T) {
	if testing.Short() {
		t.Skip("conditioning Monte-Carlo skipped in -short mode")
	}
	const l = 1.0
	pos := geom.Pt(l/3, l/4)
	const half = 0.02
	ts, err := NewTripSampler(l)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDestination(l, pos)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(6)
	box := geom.NewRect(geom.Pt(pos.X-half, pos.Y-half), geom.Pt(pos.X+half, pos.Y+half))
	hits, cross := 0, 0
	quadCount := map[Quadrant]int{}
	for i := 0; i < 4000000 && hits < 30000; i++ {
		tr := ts.Sample(rng)
		p := tr.Pos()
		if !p.In(box) {
			continue
		}
		hits++
		dst := tr.Path.Dst
		if tr.Path.OnSecondLeg(tr.Travelled) || dst.X == p.X || dst.Y == p.Y {
			cross++
			continue
		}
		switch {
		case dst.X < p.X && dst.Y < p.Y:
			quadCount[QuadrantSW]++
		case dst.X < p.X:
			quadCount[QuadrantNW]++
		case dst.Y > p.Y:
			quadCount[QuadrantNE]++
		default:
			quadCount[QuadrantSE]++
		}
	}
	if hits < 5000 {
		t.Fatalf("only %d conditioned hits", hits)
	}
	if got := float64(cross) / float64(hits); math.Abs(got-0.5) > 0.02 {
		t.Errorf("conditioned cross fraction = %v, want 0.5", got)
	}
	for _, q := range []Quadrant{QuadrantSW, QuadrantNW, QuadrantNE, QuadrantSE} {
		got := float64(quadCount[q]) / float64(hits)
		want := d.QuadrantMass(q)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("quadrant %v: conditioned %v, closed form %v", q, got, want)
		}
	}
}

func TestHeadingGivenQuadrant(t *testing.T) {
	const l = 1.0
	pos := geom.Pt(0.3, 0.2)
	d, err := NewDestination(l, pos)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(7)
	// NE destination: horizontal weight x, vertical weight y.
	dst := geom.Pt(0.8, 0.9)
	horiz := 0
	const n = 200000
	for i := 0; i < n; i++ {
		h := d.HeadingGivenQuadrant(rng, dst)
		switch h {
		case geom.HeadingEast:
			horiz++
		case geom.HeadingNorth:
		default:
			t.Fatalf("NE destination produced heading %v", h)
		}
	}
	want := pos.X / (pos.X + pos.Y)
	if got := float64(horiz) / n; math.Abs(got-want) > 0.01 {
		t.Errorf("P(east | NE) = %v, want %v", got, want)
	}
	// SW destination: weights flip to (L-x) and (L-y).
	dst = geom.Pt(0.1, 0.05)
	horiz = 0
	for i := 0; i < n; i++ {
		h := d.HeadingGivenQuadrant(rng, dst)
		switch h {
		case geom.HeadingWest:
			horiz++
		case geom.HeadingSouth:
		default:
			t.Fatalf("SW destination produced heading %v", h)
		}
	}
	want = (l - pos.X) / ((l - pos.X) + (l - pos.Y))
	if got := float64(horiz) / n; math.Abs(got-want) > 0.01 {
		t.Errorf("P(west | SW) = %v, want %v", got, want)
	}
}

func TestArmQuadrantStrings(t *testing.T) {
	if ArmSouth.String() != "south" || ArmEast.String() != "east" {
		t.Error("arm strings wrong")
	}
	if QuadrantSW.String() != "SW" || QuadrantNE.String() != "NE" {
		t.Error("quadrant strings wrong")
	}
	if Arm(9).String() != "Arm(9)" || Quadrant(9).String() != "Quadrant(9)" {
		t.Error("unknown value strings wrong")
	}
}

// Float64 on a bare source must reproduce (*rand.Rand).Float64 on the same
// stream bit for bit: the simulator's per-agent streams draw through it.
func TestFloat64MatchesRand(t *testing.T) {
	var bare rand.PCG
	bare.Seed(3, 9)
	wrapped := rand.New(rand.NewPCG(3, 9))
	for k := 0; k < 10000; k++ {
		got, want := Float64(&bare), wrapped.Float64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: Float64 = %v, rand.Rand.Float64 = %v", k, got, want)
		}
	}
}
