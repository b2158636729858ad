package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/kernel"
	"manhattanflood/internal/sim"
)

func TestParsimoniousErrors(t *testing.T) {
	w := newWorld(t, sim.Params{N: 10, L: 10, R: 1, V: 0.1, Seed: 1})
	if _, err := NewParsimoniousFlooding(nil, 0, 0.5, 1); err == nil {
		t.Error("want nil-world error")
	}
	if _, err := NewParsimoniousFlooding(w, 99, 0.5, 1); err == nil {
		t.Error("want range error")
	}
	for _, p := range []float64{0, -0.5, 1.5} {
		if _, err := NewParsimoniousFlooding(w, 0, p, 1); err == nil {
			t.Errorf("p=%v: want probability error", p)
		}
	}
}

func TestParsimoniousCompletesSlower(t *testing.T) {
	p := sim.Params{N: 300, L: 10, R: 1.5, V: 0.3, Seed: 11}
	wFast := newWorld(t, p)
	wSlow := newWorld(t, p)
	fast, _ := NewParsimoniousFlooding(wFast, 0, 1, 3)
	slow, _ := NewParsimoniousFlooding(wSlow, 0, 0.1, 3)
	okFast := runDone(t, fast, 3000)
	okSlow := runDone(t, slow, 3000)
	tFast, tSlow := wFast.Time(), wSlow.Time()
	if !okFast || !okSlow {
		t.Fatalf("runs incomplete: fast=%v slow=%v", okFast, okSlow)
	}
	if tSlow < tFast {
		t.Errorf("p=0.1 finished faster (%d) than p=1 (%d)", tSlow, tFast)
	}
	// But with ~10x fewer transmissions per informed step on average.
	if slow.Transmissions() >= fast.Transmissions()*2 {
		t.Errorf("parsimonious used %d transmissions vs %d for full flooding",
			slow.Transmissions(), fast.Transmissions())
	}
}

func TestKGossipErrors(t *testing.T) {
	w := newWorld(t, sim.Params{N: 10, L: 10, R: 1, V: 0.1, Seed: 1})
	if _, err := NewKGossip(nil, 0, 1, 1); err == nil {
		t.Error("want nil-world error")
	}
	if _, err := NewKGossip(w, -1, 1, 1); err == nil {
		t.Error("want range error")
	}
	if _, err := NewKGossip(w, 0, 0, 1); err == nil {
		t.Error("want fan-out error")
	}
}

func TestKGossipCompletes(t *testing.T) {
	p := sim.Params{N: 200, L: 10, R: 1.5, V: 0.3, Seed: 13}
	w := newWorld(t, p)
	g, err := NewKGossip(w, 0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !runDone(t, g, 5000) {
		t.Fatalf("k-gossip incomplete after %d steps (%d/%d)",
			w.Time(), g.InformedCount(), w.N())
	}
	if g.InformedCount() != 200 {
		t.Errorf("InformedCount = %d", g.InformedCount())
	}
}

func TestKGossipSlowerThanFlooding(t *testing.T) {
	p := sim.Params{N: 400, L: 10, R: 1.5, V: 0.3, Seed: 17}
	w1 := newWorld(t, p)
	w2 := newWorld(t, p)
	flood, _ := NewFlooding(w1, 0)
	gossip, _ := NewKGossip(w2, 0, 1, 5)
	rf := runFlood(t, flood, 5000)
	ok := runDone(t, gossip, 5000)
	tg := w2.Time()
	if !rf.Completed || !ok {
		t.Fatal("runs incomplete")
	}
	if tg < rf.Time {
		t.Errorf("k=1 gossip (%d) beat full flooding (%d)", tg, rf.Time)
	}
}

// refParsimonious is the rescan ParsimoniousFlooding ran before its
// rounds became Flooding rounds, kept as the oracle for its informed sets
// and transmission counts. Every round it draws the transmitters, one
// draw per informed agent in id order, then visits every uninformed agent
// and asks the batched kernel whether its 3x3 block holds an active
// agent in range.
type refParsimonious struct {
	w             *sim.World
	p             float64
	rng           *rand.Rand
	informed      []bool
	count         int
	active        []bool   // scratch: who transmits this round
	actBits       []uint64 // scratch: active-by-CSR-position bitmap (kernel filter)
	newly         []int32  // scratch: this round's hits
	transmissions int64
}

func newRefParsimonious(w *sim.World, source int, p float64, seed uint64) *refParsimonious {
	f := &refParsimonious{
		w:        w,
		p:        p,
		rng:      rand.New(rand.NewPCG(seed, 0xf100d)),
		informed: make([]bool, w.N()),
		active:   make([]bool, w.N()),
		count:    1,
	}
	f.informed[source] = true
	return f
}

func (f *refParsimonious) step() int {
	f.w.Step()
	ix := f.w.Index()
	r := ix.Radius()
	r2 := r * r
	clear(f.active)
	for i, inf := range f.informed {
		if inf && f.rng.Float64() < f.p {
			f.active[i] = true
			f.transmissions++
		}
	}
	xs, ys := ix.XS(), ix.YS()
	ids, cxs, cys := ix.CSR()
	nw := kernel.Words(len(ids))
	if cap(f.actBits) < nw {
		f.actBits = make([]uint64, nw)
	}
	actBits := f.actBits[:nw]
	clear(actBits)
	for k, id := range ids {
		if f.active[id] {
			actBits[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	f.actBits = actBits
	newly := f.newly[:0]
	for i := range f.informed {
		if f.informed[i] {
			continue
		}
		px, py := xs[i], ys[i]
		x0, x1, y0, y1 := ix.BlockBoundsXY(px, py)
		for by := y0; by <= y1; by++ {
			lo, hi := ix.RowSpanBounds(by, x0, x1)
			if lo >= hi {
				continue
			}
			if kernel.AnyHit(cxs[lo:hi], cys[lo:hi], px, py, r2, actBits, int(lo)) {
				newly = append(newly, int32(i))
				break
			}
		}
	}
	for _, i := range newly {
		f.informed[i] = true
	}
	f.newly = newly
	f.count += len(newly)
	return len(newly)
}

// ParsimoniousFlooding's informed sets and transmission counts are
// bit-identical to the rescan oracle's after every step, on every
// protocol shape, at p = 0.1, 0.5 and 1.
func TestParsimoniousMatchesRescanOracle(t *testing.T) {
	for _, s := range protocolShapes(500) {
		for _, p := range []float64{0.1, 0.5, 1} {
			t.Run(fmt.Sprintf("%s_p%v", s.name, p), func(t *testing.T) {
				w1, w2 := s.world(t), s.world(t)
				src := s.source(w1)
				pars, err := NewParsimoniousFlooding(w1, src, p, 7)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefParsimonious(w2, src, p, 7)
				for step := 1; step <= relationSteps && !pars.Done(); step++ {
					got, want := pars.Step(), ref.step()
					if got != want || pars.InformedCount() != ref.count {
						t.Fatalf("step %d: %d newly informed (%d in all), oracle %d (%d)",
							step, got, pars.InformedCount(), want, ref.count)
					}
					requireSameInformed(t, step, pars.fl.informed, ref.informed)
					if pars.Transmissions() != ref.transmissions {
						t.Fatalf("step %d: %d transmissions, oracle %d", step, pars.Transmissions(), ref.transmissions)
					}
				}
			})
		}
	}
}
