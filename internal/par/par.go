// Package par is the one worker pool of the repository: an indexed
// parallel loop whose callers keep their results in index-keyed slices,
// so every output is the same at any worker count.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(worker, i) once for every i in [0, n), on at most
// workers goroutines; worker, in [0, workers), names the calling
// goroutine, for per-worker scratch. With workers ≤ 1 everything runs
// inline on the caller's goroutine as worker 0. Indices are handed out
// in increasing order, and none is started once ctx is cancelled (the
// caller reads ctx.Err() to tell a complete loop from a cut one).
// ForEach returns when every goroutine it started has exited.
func ForEach(ctx context.Context, n, workers int, fn func(worker, i int)) {
	var next atomic.Int64
	work := func(worker int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(worker, i)
		}
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
}
