package panicsafe

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestCatcherForwardsWorkerPanic(t *testing.T) {
	var c Catcher
	var wg sync.WaitGroup
	for sh := 0; sh < 4; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			defer c.Recover(sh)
			if sh == 2 {
				panic("boom")
			}
		}(sh)
	}
	wg.Wait()

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Rethrow did not re-panic")
		}
		sp, ok := r.(*ShardPanic)
		if !ok {
			t.Fatalf("rethrown value is %T, want *ShardPanic", r)
		}
		if sp.Shard != 2 || sp.Value != "boom" {
			t.Errorf("got shard=%d value=%v", sp.Shard, sp.Value)
		}
		if !strings.Contains(string(sp.Stack), "panicsafe") {
			t.Error("captured stack missing the panicking frame")
		}
	}()
	c.Rethrow()
}

func TestCatcherNoPanicIsNoOp(t *testing.T) {
	var c Catcher
	var wg sync.WaitGroup
	for sh := 0; sh < 3; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			defer c.Recover(sh)
		}(sh)
	}
	wg.Wait()
	c.Rethrow() // must not panic
}

func TestCatcherKeepsFirstAndClears(t *testing.T) {
	var c Catcher
	func() {
		defer c.Recover(0)
		panic("first")
	}()
	func() {
		defer c.Recover(1)
		panic("second")
	}()
	var got *ShardPanic
	func() {
		defer func() { got = recover().(*ShardPanic) }()
		c.Rethrow()
	}()
	if got.Value != "first" {
		t.Errorf("kept %v, want the first panic", got.Value)
	}
	c.Rethrow() // cleared: must not panic again
}

func TestShardPanicUnwrapsInvariantError(t *testing.T) {
	inv := Invariant("spatialindex", "len(xs)=%d len(ys)=%d", 3, 4)
	if want := "spatialindex: invariant violated: len(xs)=3 len(ys)=4"; inv.Error() != want {
		t.Errorf("Error() = %q, want %q", inv.Error(), want)
	}
	sp := &ShardPanic{Shard: 1, Value: inv}
	var target *InvariantError
	if !errors.As(sp, &target) {
		t.Fatal("errors.As cannot reach the InvariantError through ShardPanic")
	}
	if target.Pkg != "spatialindex" {
		t.Errorf("Pkg = %q", target.Pkg)
	}

	plain := &ShardPanic{Shard: 0, Value: "not an error"}
	if plain.Unwrap() != nil {
		t.Error("non-error panic value must not unwrap")
	}
}

func TestNestedShardPanicKeepsInnermost(t *testing.T) {
	inner := &ShardPanic{Shard: 7, Value: "deep"}
	var c Catcher
	func() {
		defer c.Recover(0)
		panic(inner)
	}()
	var got *ShardPanic
	func() {
		defer func() { got = recover().(*ShardPanic) }()
		c.Rethrow()
	}()
	if got != inner {
		t.Errorf("nested rethrow rewrapped the panic: got shard %d", got.Shard)
	}
}

// Fanout covers [0, n) exactly once with contiguous shards, for worker
// counts below, at and above n.
func TestFanoutCoversRange(t *testing.T) {
	var f Fanout
	for _, n := range []int{0, 1, 5, 100} {
		for _, workers := range []int{0, 1, 2, 3, 8} {
			hits := make([]int, n)
			calls := 0
			var mu sync.Mutex
			f.Run(workers, n, func(shard, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
			if want := max(min(workers, n), 1); calls > want {
				t.Fatalf("n=%d workers=%d: %d shards, want at most %d", n, workers, calls, want)
			}
		}
	}
}

// A worker panic reaches the caller as a ShardPanic, and the Fanout stays
// usable afterwards.
func TestFanoutForwardsPanic(t *testing.T) {
	var f Fanout
	func() {
		defer func() {
			sp, ok := recover().(*ShardPanic)
			if !ok || sp.Shard != 1 || sp.Value != "boom" {
				t.Fatalf("recovered %#v, want shard 1 panic \"boom\"", sp)
			}
		}()
		f.Run(2, 10, func(shard, lo, hi int) {
			if shard == 1 {
				panic("boom")
			}
		})
	}()
	f.Run(2, 10, func(shard, lo, hi int) {}) // must not re-panic
}

// Once warm, a parallel Run allocates nothing.
func TestFanoutZeroAlloc(t *testing.T) {
	var f Fanout
	out := make([]int, 64)
	fn := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i]++
		}
	}
	f.Run(4, len(out), fn)
	if avg := testing.AllocsPerRun(50, func() { f.Run(4, len(out), fn) }); avg > 0 {
		t.Errorf("Fanout.Run allocates %v times per call, want 0", avg)
	}
}
