package par

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachVisitsEveryIndexOnce: every index exactly once, worker
// indexes inside [0, Workers(workers, n)), at worker counts below, at
// and above n, and one per CPU when workers ≤ 0.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n, cpus = 100, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
	for _, workers := range []int{-1, 0, 1, 3, n, 4 * n} {
		pool := Workers(workers, n)
		if workers <= 0 && pool != cpus {
			t.Errorf("Workers(%d, %d) = %d, want one per CPU (%d)", workers, n, pool, cpus)
		}
		var visits [n]atomic.Int32
		var badWorker atomic.Int32
		err := ForEach(context.Background(), n, workers, func(w, i int) error {
			visits[i].Add(1)
			if w < 0 || w >= pool {
				badWorker.Add(1)
			}
			return nil
		})
		if err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Errorf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
		if badWorker.Load() != 0 {
			t.Errorf("workers=%d: %d calls carried a worker index out of range", workers, badWorker.Load())
		}
	}
}

// TestForEachStopsOnCancel: once the context is cancelled no new index
// starts, and ForEach still returns.
func TestForEachStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		ForEach(ctx, 1000, workers, func(_, i int) error {
			if ran.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		if got := ran.Load(); got < 10 || got >= 10+int32(workers) {
			t.Errorf("workers=%d: %d indices ran, want 10 (plus at most one already started per other worker)", workers, got)
		}
		cancel()
	}
}

// TestForEachReturnsLowestIndexError: the error is the lowest failing
// index's at any worker count, and no index is handed out after a
// failure.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		var ran atomic.Int32
		err := ForEach(context.Background(), 1000, workers, func(_, i int) error {
			ran.Add(1)
			if i >= 20 && i%2 == 0 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 20" {
			t.Errorf("workers=%d: got %v, want the error of index 20", workers, err)
		}
		if got := int(ran.Load()); got >= 1000 {
			t.Errorf("workers=%d: all %d indices ran after a failure", workers, got)
		}
	}
}

// TestForEachRepanicsOnCaller: a panic on a pool goroutine reaches the
// caller's recover, value unchanged, instead of ending the process.
func TestForEachRepanicsOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Errorf("workers=%d: recovered %#v, want the value fn panicked with", workers, p)
				}
			}()
			ForEach(context.Background(), 100, workers, func(_, i int) error {
				if i == 7 {
					panic("boom")
				}
				return nil
			})
			t.Errorf("workers=%d: ForEach returned after a panic", workers)
		}()
	}
}
