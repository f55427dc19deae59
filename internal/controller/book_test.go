package controller

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// A booked route is the very route another controller on the graph
// encoded; a controller on another graph encodes its own, equal one.
// Planned and explicit protection never share an entry unless the
// encoder's inputs are the same.
func TestRouteBookSharesRoutesAcrossControllers(t *testing.T) {
	g, other := net15(t), net15(t)
	partial, err := core.HopsFromPairs(g, topology.Net15PartialProtection)
	if err != nil {
		t.Fatalf("HopsFromPairs: %v", err)
	}
	install := func(c *Controller, hops []core.Hop) *core.Route {
		t.Helper()
		r, err := c.InstallRoute("AS1", "AS3", hops)
		if err != nil {
			t.Fatalf("InstallRoute: %v", err)
		}
		return r
	}
	plain, planned := install(New(g), nil), install(New(g, WithAutoProtection()), nil)
	explicit := install(New(g), partial)
	if len(planned.Protection) == 0 || plain.String() == planned.String() || explicit.String() == plain.String() {
		t.Fatalf("plain, planned and explicit routes should differ:\n%s\n%s\n%s", plain, planned, explicit)
	}
	for _, c := range []struct {
		name string
		got  *core.Route
		want *core.Route
	}{
		{"plain", install(New(g), nil), plain},
		{"planned", install(New(g, WithAutoProtection()), nil), planned},
		{"explicit", install(New(g), partial), explicit},
		{"explicit under auto-protection", install(New(g, WithAutoProtection()), partial), explicit},
	} {
		if c.got != c.want {
			t.Errorf("%s: a second controller on the graph encoded its own route, want the booked one", c.name)
		}
	}
	otherPartial, _ := core.HopsFromPairs(other, topology.Net15PartialProtection)
	for _, c := range []struct {
		name string
		got  *core.Route
		want *core.Route
	}{
		{"plain", install(New(other), nil), plain},
		{"planned", install(New(other, WithAutoProtection()), nil), planned},
		{"explicit", install(New(other), otherPartial), explicit},
	} {
		if c.got == c.want || c.got.String() != c.want.String() {
			t.Errorf("%s on another graph: got %s (same pointer %v), want an equal route of its own", c.name, c.got, c.got == c.want)
		}
	}
}

// Controllers on one shared graph, installing the same pairs and pairs
// of their own from concurrent goroutines, get the routes a controller
// on a private graph encodes (run under -race, this is the book's
// locking test).
func TestRouteBookConcurrentControllers(t *testing.T) {
	shared, err := topology.Shared("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	private, err := topology.ByName("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	edges := private.EdgeNodes()
	var pairs [][2]string
	for _, a := range edges {
		for _, b := range edges {
			if a != b {
				pairs = append(pairs, [2]string{a.Name(), b.Name()})
			}
		}
	}
	want := map[bool]map[[2]string]string{}
	for _, auto := range []bool{false, true} {
		c := controllerOn(private, auto)
		want[auto] = map[[2]string]string{}
		for _, p := range pairs {
			r, err := c.InstallRoute(p[0], p[1], nil)
			if err != nil {
				t.Fatalf("InstallRoute(%v): %v", p, err)
			}
			want[auto][p] = r.String()
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(pairs))
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			auto := w%2 == 1
			c := controllerOn(shared, auto)
			mine := pairs[:8] // every worker's
			for i := 8 + w; i < len(pairs); i += workers {
				mine = append(mine[:len(mine):len(mine)], pairs[i])
			}
			for _, p := range mine {
				r, err := c.InstallRoute(p[0], p[1], nil)
				if err != nil {
					errs <- err.Error()
				} else if r.String() != want[auto][p] {
					errs <- "route " + r.String() + ", want " + want[auto][p]
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func controllerOn(g *topology.Graph, auto bool) *Controller {
	if auto {
		return New(g, WithAutoProtection())
	}
	return New(g)
}

// The book dies with its graph: nothing outside the graph holds it, so
// a graph with booked routes is collected once unreferenced.
func TestRouteBookDiesWithGraph(t *testing.T) {
	g := net15(t)
	for _, c := range []*Controller{New(g), New(g, WithAutoProtection())} {
		if _, err := c.InstallRoute("AS1", "AS3", nil); err != nil {
			t.Fatalf("InstallRoute: %v", err)
		}
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(g, func(*topology.Graph) { close(collected) })
	g = nil
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("a graph with booked routes outlived its last reference")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// A full book books nothing more and changes no route: on fattree:10's
// 2 450 pairs, past the cap, a second controller gets the first one's
// routes, booked or encoded again.
func TestRouteBookFullKeepsResults(t *testing.T) {
	g, err := topology.ByName("fattree:10")
	if err != nil {
		t.Fatal(err)
	}
	edges := g.EdgeNodes()
	first, second := New(g), New(g)
	booked, encoded := 0, 0
	for _, a := range edges {
		for _, b := range edges {
			if a == b {
				continue
			}
			want, err := first.InstallRoute(a.Name(), b.Name(), nil)
			if err != nil {
				t.Fatalf("InstallRoute: %v", err)
			}
			got, err := second.InstallRoute(a.Name(), b.Name(), nil)
			if err != nil {
				t.Fatalf("InstallRoute: %v", err)
			}
			if got.String() != want.String() {
				t.Fatalf("second controller: %s, want %s", got, want)
			}
			if got == want {
				booked++
			} else {
				encoded++
			}
		}
	}
	if booked == 0 || encoded == 0 {
		t.Errorf("%d routes booked and %d encoded again: want both past the cap", booked, encoded)
	}
}
