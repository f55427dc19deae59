// Package par is the one worker pool of the repository: an indexed
// parallel loop whose callers keep their results in index-keyed slices,
// so every output is the same at any worker count.
package par

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for a loop over n indices
// to the number of goroutines ForEach uses: workers ≤ 0 means one per
// CPU — the repository's one such default — and the result is never
// above n nor below 1. Callers size per-worker scratch with it.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// ForEach calls fn(worker, i) once for every i in [0, n), on
// Workers(workers, n) goroutines; worker names the calling goroutine,
// for per-worker scratch. With one worker everything runs inline on
// the caller's goroutine as worker 0. Indices are handed out in
// increasing order, and none is started once ctx is cancelled (the
// caller reads ctx.Err() to tell a complete loop from a cut one) or
// once a call has failed. ForEach returns when every goroutine it
// started has exited, with the error of the lowest failing index —
// every index below a started one has itself been started and has
// finished by then, so the error is the same at any worker count. A
// panic in fn on a pool goroutine is re-raised with its own value on
// the caller's, where the caller's recover (the serve daemon's, say)
// can reach it; the stack it was raised on, which the re-raise loses,
// goes to stderr as it would have had the panic ended the process.
func ForEach(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	// One shared record: the closures below escape to the pool's
	// goroutines, and each captured variable would be its own allocation.
	var st struct {
		next     atomic.Int64
		mu       sync.Mutex
		failedAt int
		failed   error
		panicked any
	}
	st.failedAt = n
	work := func(worker int) {
		for ctx.Err() == nil {
			i := int(st.next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(worker, i); err != nil {
				st.mu.Lock()
				if i < st.failedAt {
					st.failedAt, st.failed = i, err
				}
				st.mu.Unlock()
				st.next.Store(int64(n))
				return
			}
		}
	}
	workers = Workers(workers, n)
	if workers == 1 {
		work(0)
		return st.failed
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					fmt.Fprintf(os.Stderr, "par: panic on a pool goroutine: %v\n%s", p, debug.Stack())
					st.mu.Lock()
					st.panicked = p
					st.mu.Unlock()
					st.next.Store(int64(n))
				}
			}()
			work(w)
		}()
	}
	wg.Wait()
	if st.panicked != nil {
		panic(st.panicked)
	}
	return st.failed
}
