package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestProcs(t *testing.T) {
	if got := Procs(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Procs(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Procs(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Procs(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Procs(7); got != 7 {
		t.Errorf("Procs(7) = %d", got)
	}
}

func TestDoCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 7, 1000} {
			counts := make([]atomic.Int32, n)
			Do(p, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("p=%d n=%d: index %d ran %d times", p, n, i, got)
				}
			}
		}
	}
}

func TestMapOrder(t *testing.T) {
	for _, p := range []int{1, 4, 16} {
		out := Map(p, 100, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("p=%d: out[%d] = %d, want %d", p, i, v, i*i)
			}
		}
	}
}

// TestDoRepanicsOnCaller: a panic in f, inline or on a worker, reaches
// Do's caller with its value, where recover contains it, and only after
// the other workers have finished the items they started.
func TestDoRepanicsOnCaller(t *testing.T) {
	for _, p := range []int{1, 4} {
		var started, finished atomic.Int32
		release := make(chan struct{})
		got := func() (v any) {
			defer func() { v = recover() }()
			Do(p, 100, func(i int) {
				started.Add(1)
				defer finished.Add(1)
				if i == 3 {
					close(release)
					panic(fmt.Sprintf("item %d", i))
				}
				if i > 3 {
					<-release
				}
			})
			return nil
		}()
		if got != "item 3" {
			t.Fatalf("p=%d: recovered %v, want the panic's value", p, got)
		}
		if s, f := started.Load(), finished.Load(); s != f {
			t.Errorf("p=%d: %d items started, %d finished", p, s, f)
		}
	}
}
