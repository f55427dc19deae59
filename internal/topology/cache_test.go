package topology

import (
	"fmt"
	"sync"
	"testing"
)

func TestGraphCacheHitReturnsSamePointer(t *testing.T) {
	c := NewGraphCache(4)
	build := func() (*Graph, error) { return FromSpec("fattree:4") }
	a, err := c.Get("fattree:4", build)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get("fattree:4", build)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Get built a new graph instead of hitting the cache")
	}
	if a.Fingerprint() == "" {
		t.Fatal("cached graph has no fingerprint")
	}
}

func TestGraphCacheEvictsLRU(t *testing.T) {
	c := NewGraphCache(2)
	mk := func(name string) func() (*Graph, error) {
		return func() (*Graph, error) {
			g := New(name)
			if _, err := g.AddCore("SW1", 5); err != nil {
				return nil, err
			}
			if _, err := g.AddEdge("A"); err != nil {
				return nil, err
			}
			if _, err := g.AddEdge("B"); err != nil {
				return nil, err
			}
			if _, err := g.Connect("A", "SW1"); err != nil {
				return nil, err
			}
			if _, err := g.Connect("B", "SW1"); err != nil {
				return nil, err
			}
			return g, nil
		}
	}
	a1, _ := c.Get("a", mk("a"))
	c.Get("b", mk("b"))
	c.Get("a", mk("a")) // refresh a; b is now LRU
	c.Get("c", mk("c")) // evicts b
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	a2, _ := c.Get("a", mk("a"))
	if a1 != a2 {
		t.Fatal("a was evicted but b was least recently used")
	}
	builds := 0
	c.Get("b", func() (*Graph, error) { builds++; return mk("b")() })
	if builds != 1 {
		t.Fatalf("b should have been rebuilt after eviction (builds=%d)", builds)
	}
}

func TestGraphCacheError(t *testing.T) {
	c := NewGraphCache(2)
	wantErr := fmt.Errorf("boom")
	if _, err := c.Get("x", func() (*Graph, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("error not propagated: %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed build was cached")
	}
}

func TestGraphCacheConcurrent(t *testing.T) {
	c := NewGraphCache(8)
	var wg sync.WaitGroup
	got := make([]*Graph, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := c.Get("fattree:4", func() (*Graph, error) { return FromSpec("fattree:4") })
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = g
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Gets returned different graphs for one key")
		}
	}
}

// A link's index is its place in Links(), and its name is built once:
// the second call allocates nothing.
func TestLinkIndexAndCachedName(t *testing.T) {
	g, err := Net15()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLinks() != len(g.Links()) {
		t.Fatalf("NumLinks %d, %d links", g.NumLinks(), len(g.Links()))
	}
	for i, l := range g.Links() {
		if l.Index() != i {
			t.Fatalf("link %s at position %d has index %d", l.A().Name()+"-"+l.B().Name(), i, l.Index())
		}
		if want := l.A().Name() + "-" + l.B().Name(); l.Name() != want {
			t.Fatalf("link name %q, want %q", l.Name(), want)
		}
	}
	l := g.Links()[3]
	if allocs := testing.AllocsPerRun(100, func() { _ = l.Name() }); allocs != 0 {
		t.Fatalf("Name on a named link allocates %.0f times", allocs)
	}
}

// Graphs from Shared are read by many jobs at once: naming the links of
// a graph nobody has named yet from several goroutines is race-free (run
// under -race) and every caller sees the same string.
func TestLinkNameConcurrent(t *testing.T) {
	g, err := FromSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	links := g.Links()
	names := make([][]string, 8)
	var wg sync.WaitGroup
	for w := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, l := range links {
				names[w] = append(names[w], l.Name())
			}
		}()
	}
	wg.Wait()
	for w := range names {
		for i, l := range links {
			if want := l.A().Name() + "-" + l.B().Name(); names[w][i] != want {
				t.Fatalf("goroutine %d named link %d %q, want %q", w, i, names[w][i], want)
			}
		}
	}
}
