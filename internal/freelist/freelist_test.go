package freelist

import "testing"

// TestDepotKeepsAtMostLimit: a depot takes what fits under its limit
// and leaves the rest to the collector, whether they come from a
// deposit or from a cache that overflows or spills into it.
func TestDepotKeepsAtMostLimit(t *testing.T) {
	d := NewDepot[int](5, 4)
	d.Deposit([]int{1, 2, 3})
	d.Deposit([]int{4, 5, 6, 7})
	if got := d.Withdraw(nil, 10); len(got) != 5 || got[4] != 5 {
		t.Fatalf("depot of limit 5 gave back %v, want [1 2 3 4 5]", got)
	}
	var c Cache[int]
	for i := 0; i < 9; i++ {
		c.Put(d, i)
	}
	// Puts 5, 7 and 9 found the cache full and spilled two items each,
	// the last two into a depot with room for one.
	if len(c.free) != 3 || d.Len() != 5 {
		t.Fatalf("after 9 puts the cache holds %d and the depot %d, want 3 and 5", len(c.free), d.Len())
	}
	c.Spill(d)
	if len(c.free) != 0 || d.Len() != 5 {
		t.Fatalf("after a spill the cache holds %d and the depot %d, want 0 and 5", len(c.free), d.Len())
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.Get(d); !ok {
			t.Fatalf("get %d found nothing with the depot holding %d", i, d.Len())
		}
	}
	if x, ok := c.Get(d); ok {
		t.Fatalf("an empty cache over an empty depot gave %d", x)
	}
}
