package serve

import (
	"container/list"
	"sync"
)

// cacheKey identifies a cached solve outcome: the instance's content
// fingerprint plus the solve mode. Keying by fingerprint (not by upload
// identity) means re-uploading the same instance — or two clients uploading
// identical instances — shares one cache line. Session solves key by session
// id instead and additionally carry the mutation epoch, so a re-match after
// an edit can never be answered with a stale line (registered snapshots are
// immutable and always use epoch 0).
type cacheKey struct {
	id    string
	mode  Mode
	epoch uint64
}

// resultCache is a mutex-guarded LRU over immutable *Outcome values. A hit
// returns the shared outcome; entries are never mutated after insertion, so
// readers need no copy. max <= 0 disables the cache entirely (every Get
// misses, Put is a no-op) — the configuration the load generator uses to
// exercise the flight path.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	out *Outcome
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

// Get returns the cached outcome for k, refreshing its recency.
func (c *resultCache) Get(k cacheKey) (*Outcome, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

// Put inserts (or refreshes) k → out, evicting the least recently used
// entry beyond capacity.
func (c *resultCache) Put(k cacheKey, out *Outcome) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry).out = out
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, out: out})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// EvictInstance drops every entry whose key names instance (or session) id —
// called when the id leaves the registry or session table, so the cache
// cannot serve results for unknown instances. It walks the LRU list rather
// than probing known (id, mode) combinations: keys carry more dimensions
// than the mode (the session epoch, and historically keys have gained
// fields), and a probe loop silently leaks every combination it does not
// think to probe. The walk is O(entries), which is bounded by CacheSize and
// only paid on eviction.
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
			delete(c.items, ent.key)
		}
	}
}

// Len reports the number of cached outcomes.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
