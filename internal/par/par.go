// Package par provides the small worker-pool primitives behind the
// parallel fault-injection campaigns: independent tasks fan out to a
// bounded pool of goroutines and results reassemble in input order,
// so parallel execution is observationally identical to sequential.
// The campaign engine (internal/stressor) and mutation qualification
// (internal/mutation) both build on it.
package par

import "runtime"

// Auto is the sentinel worker count meaning "one worker per available
// CPU" (runtime.GOMAXPROCS).
const Auto = -1

// Resolve maps a Workers knob value to a concrete pool size: 0 stays
// 0 (sequential), Auto and any other negative become GOMAXPROCS, and
// positive values pass through.
func Resolve(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// MapIndexed runs fn(worker, i) for every i in [0, n) and returns the
// results in index order. With workers <= 1 it runs sequentially on the
// calling goroutine, as worker 0; otherwise a pool of the given size
// consumes indices from a channel and fn, which must then be safe for
// concurrent invocation, is told which pool slot (0..workers-1) runs it —
// the caller's key to per-worker state.
func MapIndexed[T any](workers, n int, fn func(worker, i int) T) []T {
	out := make([]T, n)
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(0, i)
		}
		return out
	}
	indices := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := range indices {
				out[i] = fn(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		indices <- i
	}
	close(indices)
	for w := 0; w < workers; w++ {
		<-done
	}
	return out
}
