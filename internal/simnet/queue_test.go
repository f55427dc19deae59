package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// queueModel drives one zero-value Scheduler's queue beside a sorted
// slice: whatever is posted, appended to a train, re-keyed or popped,
// the queue must yield the oracle's (at, key) minimum, count what the
// oracle holds, and keep the calendar's invariant after every step.
type queueModel struct {
	t      testing.TB
	s      Scheduler
	want   []queueRef
	dirs   []dirState
	lastAt []time.Duration // per-train FIFO: member times only grow
	now    time.Duration
	key    uint64
}

type queueRef struct {
	at  time.Duration
	key uint64
}

var noop = callback(func() {})

func newQueueModel(t testing.TB, n int) *queueModel {
	return &queueModel{t: t, dirs: make([]dirState, n), lastAt: make([]time.Duration, n)}
}

// post queues a callback entry at at.
func (m *queueModel) post(at time.Duration) {
	m.key++
	m.s.push(entry{at: at, key: m.key, what: noop})
	m.want = append(m.want, queueRef{at, m.key})
}

// extend appends one member to train i the way enqueue does: an idle
// train gets its queue entry, a busy one only grows.
func (m *queueModel) extend(i int, at time.Duration) {
	if at < m.lastAt[i] {
		at = m.lastAt[i]
	}
	m.lastAt[i] = at
	m.key++
	m.dirs[i].train.push(&m.s, at, m.key, nil)
	m.s.trainGrew(&m.dirs[i])
	m.want = append(m.want, queueRef{at, m.key})
}

// pop removes the queue's minimum — a train head is advanced through
// trainNext, so busy trains exercise rekey — and holds it against the
// oracle's. It reports false when both are empty.
func (m *queueModel) pop() bool {
	m.t.Helper()
	e := m.s.peek()
	if again := m.s.peek(); again != e {
		m.t.Fatalf("peek is not idempotent: %p then %p", e, again)
	}
	if e == nil {
		if len(m.want) != 0 {
			m.t.Fatalf("queue empty, oracle holds %d", len(m.want))
		}
		return false
	}
	sort.Slice(m.want, func(a, b int) bool {
		if m.want[a].at != m.want[b].at {
			return m.want[a].at < m.want[b].at
		}
		return m.want[a].key < m.want[b].key
	})
	got := queueRef{e.at, e.key}
	if len(m.s.front) == 0 { // e is far's root: settle it as step does
		m.s.loadFar(bucketOf(e.at))
		e = &m.s.front[0]
	}
	if ds, ok := e.what.(*dirState); ok {
		tr := &ds.train
		mem := *tr.at(tr.head)
		m.s.trainNext(tr)
		if (queueRef{mem.at, mem.key}) != got {
			m.t.Fatalf("train entry keyed (%v,%d), head member is (%v,%d)", got.at, got.key, mem.at, mem.key)
		}
	} else {
		m.s.pop()
	}
	if len(m.want) == 0 || got != m.want[0] {
		m.t.Fatalf("popped (%v,%d), oracle minimum %+v of %d", got.at, got.key, m.want[:min(1, len(m.want))], len(m.want))
	}
	m.want = m.want[1:]
	m.now, m.s.now = got.at, got.at // as step does: nothing pending is earlier
	return true
}

// check holds the count and the calendar invariant: the queue's
// entries plus the members behind each train's head are what the
// oracle holds; front ≤ cur < ring < cur+ringSize, each ring entry in
// its own bucket's list, cur < far.
func (m *queueModel) check() {
	m.t.Helper()
	s := &m.s
	pending := s.Pending()
	for i := range m.dirs {
		if tr := &m.dirs[i].train; tr.head < tr.tail {
			pending += tr.tail - tr.head - 1
		}
	}
	if pending != len(m.want) {
		m.t.Fatalf("Pending() = %d plus %d train members, oracle holds %d", s.Pending(), pending-s.Pending(), len(m.want))
	}
	for i := range s.front {
		if b := bucketOf(s.front[i].at); b > s.cur {
			m.t.Fatalf("front entry in bucket %d, cur = %d", b, s.cur)
		}
	}
	for i := range s.far {
		if b := bucketOf(s.far[i].at); b <= s.cur {
			m.t.Fatalf("far entry in bucket %d, cur = %d", b, s.cur)
		}
	}
	ring := 0
	for slot := range s.heads {
		occupied := s.occ[slot>>6]&(1<<(slot&63)) != 0
		if occupied != (s.heads[slot] != 0) {
			m.t.Fatalf("slot %d: occupancy bit %v, head %d", slot, occupied, s.heads[slot])
		}
		for i := s.heads[slot]; i != 0; i = s.link[i-1] {
			b := bucketOf(s.nodes[i-1].at)
			if b <= s.cur || b-s.cur >= ringSize || int(b&ringMask) != slot {
				m.t.Fatalf("ring entry of bucket %d in slot %d, cur = %d", b, slot, s.cur)
			}
			ring++
		}
	}
	if ring != s.ringN {
		m.t.Fatalf("ring lists hold %d entries, ringN = %d", ring, s.ringN)
	}
}

func (m *queueModel) drain() {
	m.t.Helper()
	for m.pop() {
		m.check()
	}
}

// run interprets ops as a program: an opcode byte, then for inserts a
// time class and a multiplier. Times are offsets from the last popped
// entry (nothing is scheduled in the past) in the classes where the
// calendar has edges: bucket boundaries, the ring's horizon as it
// stands, a link delay, hours.
func (m *queueModel) run(ops []byte) {
	m.t.Helper()
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	when := func() time.Duration {
		class, k := next(), time.Duration(next())
		horizon := time.Duration(m.s.cur+ringSize) << bucketShift
		var at time.Duration
		switch class % 10 {
		case 0:
			at = m.now
		case 1:
			at = m.now + k
		case 2:
			at = (m.now>>bucketShift+k)<<bucketShift - 1
		case 3:
			at = (m.now>>bucketShift + k) << bucketShift
		case 4:
			at = (m.now>>bucketShift+k)<<bucketShift + 1
		case 5:
			at = horizon - 1
		case 6:
			at = horizon + k<<bucketShift
		case 7:
			at = m.now + k*10*time.Microsecond
		case 8:
			at = m.now + time.Millisecond + k*time.Microsecond
		case 9:
			at = m.now + k*time.Hour
		}
		if at < m.now {
			at = m.now
		}
		return at
	}
	for len(ops) > 0 {
		switch op := next(); op % 8 {
		case 0, 1:
			m.post(when())
		case 2, 3, 4:
			m.extend(next()%len(m.dirs), when())
		case 5, 6:
			m.pop()
		case 7:
			m.s.peek() // may advance cur; the next insert lands behind it
		}
		m.check()
	}
	m.drain()
}

// TestQueueMatchesSortedReference: the scheduler's queue is a priority
// queue on (at, key) at every depth and on every edge of the calendar.
func TestQueueMatchesSortedReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := newQueueModel(t, 1+rng.Intn(40))
			// Odd seeds start deep, so the program runs over a loaded
			// ring instead of the small-world front heap.
			if seed%2 == 1 {
				for i := 0; i < 3000; i++ {
					m.post(time.Duration(rng.Intn(3_000_000)))
				}
			}
			ops := make([]byte, 6000)
			rng.Read(ops)
			m.run(ops)
		}
	})
	t.Run("bucket-boundaries", func(t *testing.T) {
		m := newQueueModel(t, 1)
		for i := 0; i < smallWorld; i++ { // past the small-world rule
			m.post(0)
		}
		for k := time.Duration(1); k < 3*ringSize; k += 509 {
			m.post(k<<bucketShift + 1)
			m.post(k << bucketShift)
			m.post(k<<bucketShift - 1)
			m.check()
		}
		m.drain()
	})
	t.Run("horizon", func(t *testing.T) {
		m := newQueueModel(t, 1)
		for round := 0; round < 3; round++ {
			for i := 0; i < smallWorld; i++ { // past the small-world rule
				m.post(m.now)
			}
			h := time.Duration(m.s.cur+ringSize) << bucketShift // first instant past the ring
			ring, far := m.s.ringN, len(m.s.far)
			m.post(h - 1)
			m.post(h)
			m.post(h + 1)
			if m.s.ringN != ring+1 || len(m.s.far) != far+2 {
				t.Fatalf("round %d: horizon %v split ring %d→%d, far %d→%d; want +1, +2", round, h, ring, m.s.ringN, far, len(m.s.far))
			}
			m.check()
			m.drain() // cur moves on, the horizon with it
		}
	})
	t.Run("insert-behind-peek", func(t *testing.T) {
		m := newQueueModel(t, 1)
		for i := 0; i < smallWorld; i++ {
			m.post(0)
		}
		m.post(time.Millisecond)
		for i := 0; i < smallWorld; i++ {
			m.pop()
		}
		if e := m.s.peek(); e == nil || e.at != time.Millisecond || m.s.cur != bucketOf(time.Millisecond) {
			t.Fatalf("peek = %+v, cur = %d; want the 1 ms entry and its bucket", e, m.s.cur)
		}
		m.post(10 * time.Microsecond) // now = 0: legal, and behind cur
		m.post(time.Millisecond - 1)
		m.check()
		m.drain()
	})
	t.Run("barrier-push", func(t *testing.T) {
		// A sender's window produced a cut-link delivery for exactly the
		// window's end; the receiver's last peek of the window already
		// moved its cur past that instant when it takes its mail.
		end := 300 * time.Microsecond
		var b Scheduler
		for i := 0; i < smallWorld; i++ {
			b.push(entry{at: 0, key: uint64(i + 1), what: noop})
		}
		b.push(entry{at: time.Millisecond, key: 100, what: noop})
		b.runWindow(end)
		if b.cur <= bucketOf(end) {
			t.Fatalf("receiver's cur = %d, want it past the window end's bucket %d", b.cur, bucketOf(end))
		}
		b.deliverAt(end, 200, delivery{})
		if e := b.peek(); e == nil || e.at != end || e.key != 200 {
			t.Fatalf("after the barrier peek = %+v, want the cut-link delivery (%v,200)", e, end)
		}
		if b.Pending() != 2 {
			t.Fatalf("receiver holds %d, want 2", b.Pending())
		}
	})
	t.Run("hour-timers", func(t *testing.T) {
		m := newQueueModel(t, 4)
		for i := 0; i < 500; i++ {
			m.post(time.Duration(1+i%7)*time.Hour + time.Duration(i)*time.Microsecond)
		}
		if m.s.ringN != 0 || len(m.s.front) != 0 {
			t.Fatalf("hour-scale timers sit in front %d / ring %d, want all in far", len(m.s.front), m.s.ringN)
		}
		for i := 0; i < 100; i++ { // traffic under the timers stays a small world
			m.extend(i%4, m.now+time.Millisecond)
			m.post(m.now + 50*time.Microsecond)
			m.pop()
			m.pop()
			if m.s.ringN != 0 {
				t.Fatalf("step %d: %d entries in the ring of a small world", i, m.s.ringN)
			}
		}
		m.check()
		m.drain()
	})
	t.Run("idle-gap", func(t *testing.T) {
		// The clock ran on past an empty queue (RunUntil); cur is
		// stale, but an insert one link delay ahead of the clock is
		// still inside the horizon, and in a small world joins front.
		var s Scheduler
		for round := 1; round <= 3; round++ {
			s.RunUntil(time.Duration(round) * 10 * time.Millisecond)
			at := s.Now() + time.Millisecond
			s.push(entry{at: at, key: 1, what: noop})
			s.push(entry{at: at + time.Hour, key: 2, what: noop})
			if len(s.front) != 1 || len(s.far) != round {
				t.Fatalf("round %d: front %d, ring %d, far %d; want 1, 0, %d", round, len(s.front), s.ringN, len(s.far), round)
			}
			popWant(t, &s, at, 1)
		}
	})
	t.Run("one-instant", func(t *testing.T) {
		const n = 100_000
		var s Scheduler
		for i := 0; i < smallWorld; i++ {
			s.push(entry{at: 0, key: uint64(i + 1), what: noop})
		}
		start := time.Now()
		for i := n; i > 0; i-- { // descending keys: no insertion-order luck
			s.push(entry{at: time.Millisecond, key: uint64(i), what: noop})
		}
		for i := 0; i < smallWorld; i++ {
			popWant(t, &s, 0, uint64(i+1))
		}
		for i := 1; i <= n; i++ {
			popWant(t, &s, time.Millisecond, uint64(i))
		}
		// The heap's n log n is ≈ 0.1 s on the reference host, alone; a
		// per-pop scan of the bucket's list would be 5·10⁹ node visits.
		limit := time.Second
		if raceEnabled {
			limit *= 20
		}
		if d := time.Since(start); d > limit {
			t.Errorf("%d entries at one instant took %v, want < %v (quadratic bucket scan?)", n, d, limit)
		}
		if s.peek() != nil {
			t.Fatalf("%d entries left", s.Pending())
		}
	})
}

// popWant pops s's minimum and requires it to be (at, key).
func popWant(t *testing.T, s *Scheduler, at time.Duration, key uint64) {
	t.Helper()
	e := s.peek()
	if e == nil || e.at != at || e.key != key {
		t.Fatalf("peek = %+v, want (%v,%d)", e, at, key)
	}
	if len(s.front) == 0 {
		s.loadFar(bucketOf(at))
	}
	s.pop()
}

// FuzzSchedulerOrder feeds queueModel.run arbitrary programs; the
// committed corpus (testdata/fuzz) starts it on the calendar's edges.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 1, 5, 2, 0, 8, 9, 5, 5, 5})
	f.Add([]byte{0, 5, 0, 0, 6, 0, 0, 6, 1, 7, 0, 0, 0, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		m := newQueueModel(t, 5)
		// A third of the programs run over a loaded ring.
		if len(ops) > 0 && ops[0]%3 == 0 {
			for i := 0; i < 200; i++ {
				m.post(time.Duration(i) * 7 * time.Microsecond)
			}
		}
		m.run(ops)
	})
}
