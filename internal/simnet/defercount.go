package simnet

import (
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// DeferredCounter is a lane-owned accumulation cell in front of a
// shared telemetry.Counter — the per-hop hot path's view of a registry
// series. Increments land in a plain field and put the cell on its
// lane's dirty list; the list is folded into the (atomic) backing
// counter single-threaded at observation boundaries: before any
// control-plane callback and when Step or RunUntil returns. Every way
// to observe a counter (metric dumps, phase stats, control-plane
// callbacks) runs at one of those boundaries, and adds commute, so
// observed values are the same in every driver, data plane and shard
// count.
//
// A cell is bound at construction to the scheduler lane of the node
// that increments it, and only that lane's goroutine (or the control
// plane, between windows) may touch it: a parallel window therefore
// writes no memory another lane writes. Several cells may front one
// backing counter (one per lane or per pump); readers of the total sum
// the backing value and every cell's Pending.
//
// Cells embed by value in their owner and must not be copied once
// incremented (the dirty list holds their address). Counters that any
// lane may touch (the controller's, bumped by re-encode requests) must
// keep using the atomic telemetry.Counter directly.
type DeferredCounter struct {
	c       *telemetry.Counter
	pending int64
	lane    *Scheduler
}

// DeferCounter returns a cell fronting c, owned by the lane of the node
// whose handler, timers or outgoing links will increment it.
func (n *Network) DeferCounter(owner *topology.Node, c *telemetry.Counter) DeferredCounter {
	return DeferredCounter{c: c, lane: n.laneOf(owner)}
}

// Inc adds 1.
func (d *DeferredCounter) Inc() { d.Add(1) }

// Add accumulates v for the next fold.
func (d *DeferredCounter) Add(v int64) {
	if d.pending == 0 {
		d.lane.dirty = append(d.lane.dirty, d)
	}
	d.pending += v
}

// Pending returns the increments not yet folded into the backing
// counter.
func (d *DeferredCounter) Pending() int64 { return d.pending }

// Value returns the backing count plus this cell's pending increments
// — the logical count when this is the counter's only cell.
func (d *DeferredCounter) Value() int64 { return d.c.Value() + d.pending }

// DeferredHistogram fronts a telemetry.Histogram the way
// DeferredCounter fronts a counter: samples accumulate in lane-owned
// (unlocked) buckets plus a local count and sum, and fold into the
// backing histogram via Merge at the same boundaries. Values must be
// integral for the local float sum to stay byte-identical to
// per-sample Observe calls (see Merge); the data plane observes only
// whole hops and whole microseconds.
type DeferredHistogram struct {
	h      *telemetry.Histogram
	counts []int64
	n      int64
	sum    float64
	lane   *Scheduler
}

// DeferHistogram returns a cell fronting h, owned by the lane of the
// node whose handler will observe into it.
func (n *Network) DeferHistogram(owner *topology.Node, h *telemetry.Histogram) *DeferredHistogram {
	return &DeferredHistogram{h: h, counts: make([]int64, h.NumBuckets()), lane: n.laneOf(owner)}
}

// Observe records one sample for the next fold.
func (d *DeferredHistogram) Observe(v float64) {
	if d.n == 0 {
		d.lane.dirtyH = append(d.lane.dirtyH, d)
	}
	d.n++
	d.sum += v
	d.counts[d.h.BucketFor(v)]++
}

// foldCells drains this lane's dirty cells into their backing
// telemetry series.
func (s *Scheduler) foldCells() {
	for i, d := range s.dirty {
		d.c.Add(d.pending)
		d.pending = 0
		s.dirty[i] = nil
	}
	s.dirty = s.dirty[:0]
	for i, d := range s.dirtyH {
		d.h.Merge(d.counts, d.n, d.sum)
		for j := range d.counts {
			d.counts[j] = 0
		}
		d.n, d.sum = 0, 0
		s.dirtyH[i] = nil
	}
	s.dirtyH = s.dirtyH[:0]
	for i, ds := range s.dirtySent {
		ds.cSentPackets.Add(ds.sentPackets)
		ds.cSentBytes.Add(ds.sentBytes)
		ds.sentPackets, ds.sentBytes = 0, 0
		s.dirtySent[i] = nil
	}
	s.dirtySent = s.dirtySent[:0]
}

// flushCounters folds every lane's dirty cells. Called at observation
// boundaries — before a control-plane callback and when Step or
// RunUntil returns — and cheap when nothing is pending; a data-plane
// reader in between uses DeferredCounter.Value. Inside a parallel
// window it must return before touching any list, since the lanes are
// appending to theirs: nothing observes a counter there, so the fold
// waits for the next boundary.
func (n *Network) flushCounters() {
	if n.inWindow {
		return
	}
	for _, lane := range n.lanes {
		lane.foldCells()
	}
}
