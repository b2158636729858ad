package sim

import (
	"testing"

	"manhattanflood/internal/spatialindex"
)

// An unbound index leaves the world for good: Step no longer syncs it,
// Reset no longer rebuilds it, and the indexes still bound stay in sync.
func TestUnbindIndexDropsIt(t *testing.T) {
	p := Params{N: 600, L: 25, R: 1.5, V: 0.3, Seed: 0xb0d}
	w, err := NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := w.BindIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := w.BindIndex(6)
	if err != nil {
		t.Fatal(err)
	}
	w.UnbindIndex(gone)
	w.UnbindIndex(gone) // a second call is a no-op
	if len(w.bound) != 1 || w.bound[0].ix != kept {
		t.Fatalf("after UnbindIndex the world holds %d bound indexes, want only the kept one", len(w.bound))
	}
	ref, err := spatialindex.New(p.L, 6)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		w.Step()
		requireMatchesFreshRebuild(t, step, w, kept, ref)
	}
	w.Reset(0xb0e)
	requireMatchesFreshRebuild(t, -1, w, kept, ref)
}
