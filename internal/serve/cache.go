package serve

import (
	"container/list"
	"sync"

	"repro/popmatch"
)

// cacheKey identifies a cached solve outcome: the instance's content
// fingerprint plus the solve mode. Keying by fingerprint (not by upload
// identity) means re-uploading the same instance — or two clients uploading
// identical instances — shares one cache line. Session solves key by session
// id instead and additionally carry the mutation epoch they answer
// (registered snapshots are immutable and always use epoch 0).
type cacheKey struct {
	id    string
	mode  popmatch.Mode
	epoch uint64
}

// line is the cache line k lives in: one per (id, mode) whatever the epoch,
// so a session's re-match after a mutation replaces its previous answer
// instead of taking a line of its own.
func (k cacheKey) line() cacheKey {
	k.epoch = 0
	return k
}

// resultCache is a mutex-guarded LRU over immutable *Outcome values, keyed
// by line. A hit returns the shared outcome; entries are never mutated after
// insertion, so readers need no copy. max <= 0 disables the cache entirely
// (every Get misses, Put is a no-op) — the configuration the load generator
// uses to exercise the flight path.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
}

// cacheEntry is one line: key carries the epoch its outcome answers.
type cacheEntry struct {
	key cacheKey
	out *Outcome
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

// Get returns the cached outcome for k, refreshing its recency. A line
// holding another epoch of k is a miss.
func (c *resultCache) Get(k cacheKey) (*Outcome, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k.line()]
	if !ok || el.Value.(*cacheEntry).key != k {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

// Put stores k → out in k's line, evicting the least recently used line
// beyond capacity. A session's epoch only grows, so a newer epoch replaces
// the line's older one; a Put older than the line it finds is dropped.
func (c *resultCache) Put(k cacheKey, out *Outcome) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k.line()]; ok {
		if ent := el.Value.(*cacheEntry); k.epoch >= ent.key.epoch {
			ent.key, ent.out = k, out
			c.ll.MoveToFront(el)
		}
		return
	}
	c.items[k.line()] = c.ll.PushFront(&cacheEntry{key: k, out: out})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key.line())
	}
}

// EvictInstance drops every line whose key names instance (or session) id —
// called when the id leaves the registry or session table, so the cache
// cannot serve results for unknown instances. It walks the LRU list rather
// than probing known (id, mode) combinations: a probe loop over the known
// modes silently leaks every line it does not think to probe. The walk is
// O(entries), which is bounded by CacheSize and only paid on eviction.
func (c *resultCache) EvictInstance(id string) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if ent := el.Value.(*cacheEntry); ent.key.id == id {
			c.ll.Remove(el)
			delete(c.items, ent.key.line())
		}
	}
}

// Len reports the number of cached outcomes.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
