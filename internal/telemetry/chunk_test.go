package telemetry

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// A registry is built per registry, not per series: family records,
// single cells and their label pairs come from chunks, and a family's
// first pending block is inline.
func TestRegistrationAllocatesPerRegistry(t *testing.T) {
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("family_%d_total", i)
	}
	allocs := testing.AllocsPerRun(20, func() {
		r := NewRegistry()
		for _, name := range names {
			r.Counter(name, "switch", "SW7")
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 32 {
		t.Errorf("a registry with one counter in each of 32 families allocated %.0f times, want ≤ 32", allocs)
	}
}

// fillChunks registers an unlabelled counter, 13 families of lazyMax
// counters and 13 of lazyMax gauges — four chunks of cells each — with
// one to three label pairs per series, so label copies straddle chunk
// ends too.
func fillChunks(r *Registry) (counters []*Counter, gauges []*Gauge) {
	counters = append(counters, r.Counter("plain_total"))
	for f := 0; f < 13; f++ {
		r.Help(fmt.Sprintf("c%d_total", f), fmt.Sprintf("Counter family %d.", f))
		for s := 0; s < lazyMax; s++ {
			kv := []string{"a", fmt.Sprint(s), "b", fmt.Sprint(f), "c", "x"}[:2+2*((f+s)%3)]
			counters = append(counters, r.Counter(fmt.Sprintf("c%d_total", f), kv...))
		}
		for s := 0; s < lazyMax; s++ {
			gauges = append(gauges, r.Gauge(fmt.Sprintf("g%d", f), "slot", fmt.Sprint(s), "fam", fmt.Sprint(f)))
		}
	}
	return counters, gauges
}

// Handles cut from chunks are distinct cells: each moves alone, and the
// exposition is the one the registry gave when every cell was its own
// allocation (its SHA-256 taken then).
func TestChunkedCellsAreDistinct(t *testing.T) {
	r := NewRegistry(WithBaseLabels("policy", "nip"))
	counters, gauges := fillChunks(r)
	if len(counters) < 8+16+32+1 || len(gauges) < 8+16+32+1 {
		t.Fatalf("%d counters, %d gauges: fewer than three chunks each", len(counters), len(gauges))
	}
	seen := make(map[any]bool)
	for _, c := range counters {
		seen[c] = true
	}
	for _, g := range gauges {
		seen[g] = true
	}
	if len(seen) != len(counters)+len(gauges) {
		t.Fatalf("%d distinct handles for %d series", len(seen), len(counters)+len(gauges))
	}
	for i, c := range counters {
		c.Inc()
		for j, o := range counters {
			want := int64(0)
			if j < i {
				want = int64(j + 1)
			} else if j == i {
				want = 1
			}
			if o.Value() != want {
				t.Fatalf("after Inc on counter %d, counter %d reads %d, want %d", i, j, o.Value(), want)
			}
		}
		c.Add(int64(i))
	}
	for i, g := range gauges {
		g.Set(float64(i + 1))
		for j, o := range gauges {
			want := 0.0
			if j <= i {
				want = float64(j + 1)
			}
			if o.Value() != want {
				t.Fatalf("after Set on gauge %d, gauge %d reads %g, want %g", i, j, o.Value(), want)
			}
		}
	}
	var out bytes.Buffer
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())), "59e92b3651a9349c710f25a6fed00a4e4e99ee87ea9a911545d4cbe6929072ec"; got != want {
		t.Errorf("exposition SHA-256 %s, want %s:\n%s", got, want, out.String())
	}
}
