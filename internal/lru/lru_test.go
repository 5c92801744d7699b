package lru

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// keys reports the cached keys from most to least recently used.
func keys[V any](c *Cache[V]) []string {
	var out []string
	for n := c.root.next; n != &c.root; n = n.next {
		out = append(out, n.key)
	}
	return out
}

func TestEntryBoundEvictsLRU(t *testing.T) {
	c := New[int](2, 1<<20)
	c.Put("a", 1, 0)
	c.Put("b", 2, 0)
	if _, ok := c.Get("a", nil); !ok { // a is now the most recent
		t.Fatal("a missing")
	}
	c.Put("c", 3, 0)
	if got := keys(c); !slices.Equal(got, []string{"c", "a"}) {
		t.Fatalf("keys %v, want [c a]", got)
	}
	if _, ok := c.Get("b", nil); ok {
		t.Fatal("b survived eviction")
	}
}

func TestByteBoundCountsKeys(t *testing.T) {
	c := New[string](100, 40)
	c.Put("k1", "x", 8) // charged 10
	c.Put("k2", "y", 8) // charged 10
	if st := c.Stats(); st.Bytes != 20 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 20 bytes over 2 entries", st)
	}
	// Two more 10-byte entries reach the 40-byte budget exactly; a fifth
	// pushes the oldest out.
	c.Put("k3", "z", 8)
	c.Put("k4", "w", 8)
	c.Put("k5", "v", 8)
	if got := keys(c); !slices.Equal(got, []string{"k5", "k4", "k3", "k2"}) {
		t.Fatalf("keys %v, want [k5 k4 k3 k2]", got)
	}
	if st := c.Stats(); st.Bytes != 40 || st.BytesLimit != 40 || st.Capacity != 100 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRefusesEntriesOverQuarterBudget(t *testing.T) {
	c := New[int](10, 100)
	if !c.Admits("key", 22) || c.Admits("big", 23) {
		t.Fatal("Admits disagrees with the quarter-budget rule")
	}
	c.Put("key", 1, 22) // 3+22 = 25 = budget/4: accepted
	if _, ok := c.Get("key", nil); !ok {
		t.Fatal("entry at a quarter of the budget refused")
	}
	c.Put("big", 2, 23) // 26 > 25: refused, nothing evicted
	if _, ok := c.Get("big", nil); ok {
		t.Fatal("entry over a quarter of the budget cached")
	}
	// An oversized replacement leaves the existing entry as it was.
	c.Put("key", 3, 1000)
	if v, ok := c.Get("key", nil); !ok || v != 1 {
		t.Fatalf("oversized replacement: got %d, %v; want 1, true", v, ok)
	}
	if st := c.Stats(); st.Bytes != 25 || st.Entries != 1 {
		t.Fatalf("stats %+v, want one 25-byte entry", st)
	}
}

func TestReplaceAdjustsBytes(t *testing.T) {
	c := New[string](10, 1000)
	c.Put("a", "old", 50)
	c.Put("b", "other", 10)
	c.Put("a", "new", 20)
	if v, ok := c.Get("a", nil); !ok || v != "new" {
		t.Fatalf("got %q, %v; want new, true", v, ok)
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 21+11 {
		t.Fatalf("stats %+v, want 2 entries, 32 bytes", st)
	}
	// The replacement became the most recent entry.
	c.Put("b", "other", 10)
	c.Put("a", "newer", 20)
	if got := keys(c); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("keys %v, want [a b]", got)
	}
}

func TestStaleEntriesDropped(t *testing.T) {
	type entry struct{ gen uint64 }
	c := New[entry](10, 1000)
	c.Put("q", entry{gen: 3}, 5)
	atLeast := func(floor uint64) func(entry) bool {
		return func(e entry) bool { return e.gen >= floor }
	}
	if _, ok := c.Get("q", atLeast(3)); !ok {
		t.Fatal("fresh entry missed")
	}
	if _, ok := c.Get("q", atLeast(4)); ok {
		t.Fatal("stale entry served")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stale != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, 1 stale, empty", st)
	}
	// The stale entry is gone: the next lookup is a plain miss.
	if _, ok := c.Get("q", nil); ok {
		t.Fatal("dropped entry still cached")
	}
	if st := c.Stats(); st.Misses != 2 || st.Stale != 1 {
		t.Fatalf("stats %+v, want 2 misses, 1 stale", st)
	}
}

func TestNilCache(t *testing.T) {
	c := New[int](0, 1000)
	if c != nil {
		t.Fatal("New with max <= 0 must return nil")
	}
	c.Put("a", 1, 0)
	if _, ok := c.Get("a", nil); ok {
		t.Fatal("nil cache hit")
	}
	if c.Admits("a", 0) {
		t.Fatal("nil cache admits an entry")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
}

func TestDefaultBytes(t *testing.T) {
	if st := New[int](1, 0).Stats(); st.BytesLimit != defaultBytes {
		t.Fatalf("bytes limit %d, want %d", st.BytesLimit, defaultBytes)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	c := New[int](64, 4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprint((w*7 + i) % 100)
				if i%3 == 0 {
					c.Put(k, i, int64(i%50))
				} else {
					c.Get(k, func(v int) bool { return v%11 != 0 })
				}
				c.Stats()
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 64 || st.Bytes > 4096 || st.Entries != len(keys(c)) {
		t.Fatalf("bounds broken: %+v (%d linked)", st, len(keys(c)))
	}
	var sum int64
	for n := c.root.next; n != &c.root; n = n.next {
		sum += n.size
	}
	if sum != st.Bytes {
		t.Fatalf("byte total %d, linked entries sum to %d", st.Bytes, sum)
	}
}

// TestHotPathAllocs pins the serving hot path's allocation budget: a Get
// (hit, miss or with a fresh predicate) and a replacing Put allocate
// nothing.
func TestHotPathAllocs(t *testing.T) {
	c := New[[]byte](16, 1<<20)
	body := make([]byte, 100)
	c.Put("k", body, 100)
	floor := uint64(0)
	fresh := func([]byte) bool { return floor == 0 }
	for name, f := range map[string]func(){
		"hit":     func() { c.Get("k", nil) },
		"miss":    func() { c.Get("absent", nil) },
		"fresh":   func() { c.Get("k", fresh) },
		"replace": func() { c.Put("k", body, 100) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", name, n)
		}
	}
}
