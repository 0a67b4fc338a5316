// Package par provides the small fan-out primitives the checker's
// parallel paths share: running n independent work items across a worker
// pool and collecting results into index-addressed slots, so that output
// order — and therefore every report the checker renders — is identical
// no matter how many workers ran or how the scheduler interleaved them.
//
// Work is distributed dynamically (an atomic cursor, not static striping)
// because the checker's work items are heavily skewed: one hot key can
// carry most of a history's appends, and one strongly connected component
// can contain most of its transactions.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Procs resolves a parallelism request: values <= 0 mean "one worker per
// available CPU" (runtime.GOMAXPROCS(0)), matching the checker's default.
func Procs(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Do runs f(i) for every i in [0, n), spread across up to p workers
// (p <= 0 meaning Procs(0)). With one worker — or one item — it runs
// inline on the calling goroutine, so sequential checking allocates
// nothing and appears in profiles undisturbed. f must be safe to call
// concurrently for distinct i.
//
// A panic in f reaches the caller's goroutine either way, so the
// caller's recover contains it: a worker recovers it and takes no
// further items, the other workers finish the items they hold, and Do
// re-panics with the first value recovered.
func Do(p, n int, f func(i int)) {
	if n <= 0 {
		return
	}
	p = Procs(p)
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Bool
	var first any // the first recovered value, written by the worker that set panicked
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil && panicked.CompareAndSwap(false, true) {
					first = v
				}
			}()
			for !panicked.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(first)
	}
}

// Map runs f over [0, n) with Do and returns the results in index order:
// out[i] == f(i) regardless of which worker computed it.
func Map[T any](p, n int, f func(i int) T) []T {
	out := make([]T, n)
	Do(p, n, func(i int) { out[i] = f(i) })
	return out
}
