// Package par runs index-parallel loops on a bounded pool of goroutines.
// It is a leaf package so that every layer that fans work out — route
// construction, the MCF beta prestep, the experiment drivers — shares one
// mechanism.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(worker, i) once for every i in [0, n) on at most workers
// goroutines and returns when all calls are done. worker, in
// [0, min(workers, n)), names the goroutine making the call: calls with the
// same worker never overlap, so fn may keep per-worker scratch in a
// worker-indexed slice. fn must be safe to run concurrently for distinct i
// and write results only to i-indexed slots, so that they never depend on
// scheduling. workers <= 1 or n <= 1 runs the calls inline, in index order,
// as worker 0.
func For(workers, n int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
