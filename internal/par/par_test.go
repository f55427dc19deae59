package par

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestForEachVisitsEveryIndexOnce: every index exactly once, worker
// indexes inside [0, workers), at worker counts below, at and above n,
// and inline (same goroutine, worker 0) when workers ≤ 1.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 100
	for _, workers := range []int{-1, 0, 1, 3, n, 4 * n} {
		var visits [n]atomic.Int32
		var badWorker atomic.Int32
		ForEach(context.Background(), n, workers, func(w, i int) {
			visits[i].Add(1)
			if w < 0 || w >= max(workers, 1) || (workers <= 1 && w != 0) {
				badWorker.Add(1)
			}
		})
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
		ForEach(ctx, 1000, workers, func(_, i int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		if got := ran.Load(); got < 10 || got >= 10+int32(workers) {
			t.Errorf("workers=%d: %d indices ran, want 10 (plus at most one already started per other worker)", workers, got)
		}
		cancel()
	}
}
