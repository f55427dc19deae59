package packet

import (
	"runtime"
	"sync"
	"testing"
)

func TestPoolRoundTrip(t *testing.T) {
	p := Get()
	if !p.pooled {
		t.Fatal("Get returned an unpooled packet")
	}
	p.Flow = FlowID{Src: "A", Dst: "B", ID: 7}
	p.Seq = 99
	p.TTL = 3
	p.SACKBlocks = append(p.SACKBlocks, SACKBlock{From: 1, To: 4})
	p.Release()

	q := Get()
	if q.Seq != 0 || q.TTL != 0 || q.Flow != (FlowID{}) || q.Deflected {
		t.Errorf("recycled packet not zeroed: %+v", q)
	}
	if len(q.SACKBlocks) != 0 {
		t.Errorf("recycled packet has %d SACK blocks, want 0", len(q.SACKBlocks))
	}
	q.Release()
}

// TestReleaseKeepsSACKCapacity: the SACK backing array survives a
// Release/Get cycle so ACK senders can refill it without allocating.
func TestReleaseKeepsSACKCapacity(t *testing.T) {
	p := Get()
	p.SACKBlocks = append(p.SACKBlocks[:0], SACKBlock{1, 2}, SACKBlock{4, 6}, SACKBlock{9, 12})
	p.Release()
	// The depot is last in, first out: a single-goroutine Get right
	// after a Release returns the same object.
	q := Get()
	if cap(q.SACKBlocks) < 3 {
		t.Errorf("SACK capacity = %d after recycle, want ≥ 3", cap(q.SACKBlocks))
	}
	q.Release()
}

// TestReleaseUnpooledIsNoop: hand-built packets (tests, captures) may
// be passed through Release-calling sinks and must survive untouched.
func TestReleaseUnpooledIsNoop(t *testing.T) {
	p := &Packet{Seq: 42, TTL: 7}
	p.Release()
	if p.Seq != 42 || p.TTL != 7 {
		t.Errorf("Release mutated an unpooled packet: %+v", p)
	}
	var nilPkt *Packet
	nilPkt.Release() // must not panic
}

func TestDoubleReleaseIsNoop(t *testing.T) {
	p := Get()
	p.Release()
	p.Release() // second release must not re-pool (or panic)
}

// TestCacheRecyclesThroughDepot: a lane cache hands its overflow to the
// depot in half-cache batches, an empty cache refills from it, and
// Spill empties the cache into it — so packets put into one lane's
// cache come back out of another's, and nothing is allocated while the
// depot holds enough.
func TestCacheRecyclesThroughDepot(t *testing.T) {
	var a, b Cache
	seen := map[*Packet]bool{}
	made := make([]*Packet, cacheSize+1)
	for i := range made {
		made[i] = Get()
		seen[made[i]] = true
	}
	base := DepotLen()
	for _, p := range made {
		a.Put(p)
	}
	if got, want := DepotLen()-base, cacheSize/2; got != want {
		t.Fatalf("after %d puts a full cache handed %d to the depot, want %d", cacheSize+1, got, want)
	}
	// b takes the half a spilled, then — once a spills the rest — those.
	for i := 0; i < cacheSize+1; i++ {
		if i == cacheSize/2 {
			before := DepotLen()
			a.Spill()
			if got, want := DepotLen()-before, cacheSize/2+1; got != want {
				t.Fatalf("Spill handed %d packets to the depot, want the cache's %d", got, want)
			}
		}
		p := b.Get()
		if !seen[p] {
			t.Fatalf("get %d from the other lane allocated a packet the depot should have held", i)
		}
		if !p.pooled {
			t.Fatalf("get %d returned a packet not marked pool-owned", i)
		}
		if i == 0 && DepotLen() != base {
			t.Fatalf("an empty cache refilled %d packets, want a batch of %d", base+cacheSize/2-DepotLen(), cacheSize/2)
		}
	}
}

// TestDepotSurvivesCollection: unlike a sync.Pool, the depot keeps its
// packets across garbage collections, so a run's allocation count does
// not depend on when the collector last ran.
func TestDepotSurvivesCollection(t *testing.T) {
	p := Get()
	p.Release()
	runtime.GC()
	runtime.GC()
	if q := Get(); q != p {
		t.Fatal("the depot lost a released packet to the garbage collector")
	}
}

// TestCachePutUnpooledIsNoop: a hand-built packet put into a cache
// stays untouched and out of the cache.
func TestCachePutUnpooledIsNoop(t *testing.T) {
	var c Cache
	p := &Packet{Seq: 42}
	base := DepotLen()
	c.Put(p)
	c.Put(nil)
	c.Spill()
	if p.Seq != 42 || DepotLen() != base {
		t.Errorf("Put took a hand-built packet: seq %d, %d spilled", p.Seq, DepotLen()-base)
	}
}

// TestCachesShareDepotConcurrently: lanes run on goroutines of their
// own, and a packet made on one lane is recycled on another. Each
// goroutine here owns a cache and, every round, stamps and passes on a
// burst of packets whose size differs from lane to lane, then checks
// and recycles the burst it was passed — so some caches overflow into
// the depot and others refill from it, from every side at once. Under
// -race, a packet handed out twice shows as a race on its stamp.
func TestCachesShareDepotConcurrently(t *testing.T) {
	const lanes, rounds, unit = 4, 20, cacheSize / 4
	burst := func(lane int) int { return (lane + 1) * unit }
	links := make([]chan *Packet, lanes)
	for i := range links {
		links[i] = make(chan *Packet, rounds*burst(lanes-1)) // sends never block
	}
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var c Cache
			prev := (i + lanes - 1) % lanes
			for r := 0; r < rounds; r++ {
				for n := 0; n < burst(i); n++ {
					p := c.Get()
					p.Seq = uint64(i)<<32 | uint64(n)
					links[i] <- p
				}
				for n := 0; n < burst(prev); n++ {
					q := <-links[prev]
					if from := int(q.Seq >> 32); from != prev {
						t.Errorf("lane %d was passed a packet stamped by lane %d", i, from)
					}
					c.Put(q)
				}
			}
			c.Spill()
		}(i)
	}
	wg.Wait()
}
