// Package lru is the byte-bounded LRU behind both result caches of the
// serving tier: the replica's (internal/server) and the router's
// (internal/cluster).
//
// Cached answers retain full Θ(n)/Θ(m) result bodies, so an entry cap
// alone would let a few hundred big-graph answers pin gigabytes of heap;
// the cache is therefore bounded twice, by entry count and by bytes. An
// entry is charged its key plus the byte size its caller reports, and an
// entry larger than a quarter of the byte budget is not cached at all:
// one giant answer must not wipe the whole cache.
package lru

import (
	"sync"
	"sync/atomic"
)

// defaultBytes is the byte budget of a cache built with maxBytes <= 0.
const defaultBytes = 64 << 20

// Cache maps string keys to values of type V. A nil *Cache is valid: it
// stores nothing and every Get misses. Cache is safe for concurrent use.
type Cache[V any] struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	root     node[V] // sentinel of the recency ring: root.next is the newest
	byKey    map[string]*node[V]

	hits, misses, stale atomic.Int64
}

// node is one entry, linked into the recency ring. Values are held
// inline, so a Put allocates one node and a Get allocates nothing.
type node[V any] struct {
	prev, next *node[V]
	key        string
	val        V
	size       int64
}

// New returns a cache of up to max entries and maxBytes charged bytes
// (defaultBytes when maxBytes <= 0), or nil — caching disabled — when
// max <= 0.
func New[V any](max int, maxBytes int64) *Cache[V] {
	if max <= 0 {
		return nil
	}
	if maxBytes <= 0 {
		maxBytes = defaultBytes
	}
	c := &Cache[V]{max: max, maxBytes: maxBytes, byKey: map[string]*node[V]{}}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value under key and marks it most recently used. When
// fresh is non-nil and reports false for the stored value, the entry is
// stale: it is dropped and the lookup counts as both stale and a miss.
// fresh runs under the cache's lock, so it must be a quick check that
// does not call back into the cache.
func (c *Cache[V]) Get(key string, fresh func(V) bool) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return zero, false
	}
	if fresh != nil && !fresh(n.val) {
		c.stale.Add(1)
		c.misses.Add(1)
		c.remove(n)
		return zero, false
	}
	c.hits.Add(1)
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Put stores v under key, charged len(key)+size bytes, replacing any
// entry already there, then evicts least recently used entries beyond
// either bound. An entry charged more than a quarter of the byte budget
// is not stored (an existing entry under key is left as it was).
func (c *Cache[V]) Put(key string, v V, size int64) {
	if !c.Admits(key, size) {
		return
	}
	size += int64(len(key))
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.byKey[key]; ok {
		c.bytes += size - n.size
		n.val, n.size = v, size
		c.unlink(n)
		c.pushFront(n)
	} else {
		n := &node[V]{key: key, val: v, size: size}
		c.byKey[key] = n
		c.bytes += size
		c.pushFront(n)
	}
	for len(c.byKey) > c.max || c.bytes > c.maxBytes {
		c.remove(c.root.prev)
	}
}

// Admits reports whether Put would store an entry of size bytes under
// key, i.e. whether its charge fits a quarter of the byte budget (false
// for a nil cache). Callers use it to skip buffering what would not be
// cached.
func (c *Cache[V]) Admits(key string, size int64) bool {
	return c != nil && int64(len(key))+size <= c.maxBytes/4
}

// Stats is a snapshot of a cache's occupancy and counters. The JSON names
// are the /metrics field names; Stale is omitted while zero because only
// callers that pass a fresh predicate can produce it.
type Stats struct {
	Entries    int   `json:"entries"`
	Capacity   int   `json:"capacity"`
	Bytes      int64 `json:"bytes"`
	BytesLimit int64 `json:"bytes_limit"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Stale      int64 `json:"stale,omitempty"`
}

// Stats reports the cache's occupancy and counters (zero for nil).
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries, bytes := len(c.byKey), c.bytes
	c.mu.Unlock()
	return Stats{
		Entries:    entries,
		Capacity:   c.max,
		Bytes:      bytes,
		BytesLimit: c.maxBytes,
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Stale:      c.stale.Load(),
	}
}

func (c *Cache[V]) pushFront(n *node[V]) {
	n.prev, n.next = &c.root, c.root.next
	n.next.prev = n
	c.root.next = n
}

func (c *Cache[V]) unlink(n *node[V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[V]) remove(n *node[V]) {
	c.unlink(n)
	delete(c.byKey, n.key)
	c.bytes -= n.size
}
