package fleet

import (
	"container/list"
	"sync"
	"time"

	"ioagent/internal/ioagent"
)

// cache is a content-addressed diagnosis cache: trace digest -> completed
// result, with LRU eviction at a fixed capacity and per-entry TTL expiry.
// Cached *ioagent.Result values are shared across jobs and must be treated
// as immutable by every reader.
//
// onInsert/onEvict observe membership changes (for the persistence layer's
// dirty tracking). They are invoked after the cache's own lock is released
// (so they may call back into the cache), but the Pool invokes Get with
// pool-internal locks held, so callbacks must not call into the Pool — see
// Config.OnCacheInsert. Insert/evict notifications for concurrent
// operations may arrive out of order; observers must treat them as
// "membership changed" signals, not as a replayable log.
type cache struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration // <= 0 means entries never expire
	now      func() time.Time
	onInsert func(digest string)
	onEvict  func(digest string)

	order   *list.List // front = most recently used
	entries map[string]*list.Element
}

// cacheEntry is immutable once published into the cache: a re-put of the
// same digest swaps in a fresh entry rather than mutating the resident
// one (see putAt). That lets readers hold a *cacheEntry after releasing
// c.mu — export snapshots refs under the lock and serializes outside it,
// bounding the checkpoint pause to a pointer copy per entry.
type cacheEntry struct {
	key    string
	result *ioagent.Result
	added  time.Time
}

// newCache builds a cache holding up to capacity entries; capacity <= 0
// disables caching entirely (every Get misses, every Put is dropped).
func newCache(capacity int, ttl time.Duration, now func() time.Time) *cache {
	if now == nil {
		now = time.Now
	}
	return &cache{
		capacity: capacity,
		ttl:      ttl,
		now:      now,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// notify delivers membership callbacks. Called WITHOUT c.mu held.
func (c *cache) notify(inserted, evicted []string) {
	if c.onEvict != nil {
		for _, d := range evicted {
			c.onEvict(d)
		}
	}
	if c.onInsert != nil {
		for _, d := range inserted {
			c.onInsert(d)
		}
	}
}

// Get returns the cached result for digest, refreshing its recency.
// Expired entries are removed and reported as misses.
func (c *cache) Get(digest string) (*ioagent.Result, bool) {
	c.mu.Lock()
	el, ok := c.entries[digest]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if c.ttl > 0 && c.now().Sub(e.added) >= c.ttl {
		c.removeLocked(el)
		c.mu.Unlock()
		c.notify(nil, []string{digest})
		return nil, false
	}
	c.order.MoveToFront(el)
	c.mu.Unlock()
	return e.result, true
}

// Put stores the result for digest, evicting the least recently used entry
// when the cache is full. Re-putting an existing digest refreshes both the
// value and the TTL clock.
func (c *cache) Put(digest string, res *ioagent.Result) {
	c.putAt(digest, res, c.now())
}

// putAt is Put with an explicit insertion time, used when restoring a
// persisted snapshot or ingesting a peer's entry so it keeps its original
// TTL clock. Entries already expired at insertion time are dropped, and an
// insertion time in the future (a skewed peer clock, a forged push) is
// clamped to now: it must never stretch the entry past its TTL.
func (c *cache) putAt(digest string, res *ioagent.Result, added time.Time) {
	if c.capacity <= 0 {
		return
	}
	now := c.now()
	if added.After(now) {
		added = now
	}
	if c.ttl > 0 && now.Sub(added) >= c.ttl {
		return
	}
	var evicted []string
	c.mu.Lock()
	if el, ok := c.entries[digest]; ok {
		// Replace the entry wholesale instead of mutating in place:
		// published entries are immutable (readers may hold a ref outside
		// the lock — see export).
		el.Value = &cacheEntry{key: digest, result: res, added: added}
		c.order.MoveToFront(el)
		c.mu.Unlock()
		c.notify([]string{digest}, nil)
		return
	}
	for c.order.Len() >= c.capacity {
		back := c.order.Back()
		evicted = append(evicted, back.Value.(*cacheEntry).key)
		c.removeLocked(back)
	}
	el := c.order.PushFront(&cacheEntry{key: digest, result: res, added: added})
	c.entries[digest] = el
	c.mu.Unlock()
	c.notify([]string{digest}, evicted)
}

// export snapshots the resident entries, most recently used first, skipping
// entries already past their TTL. Only the ref collection runs under c.mu
// — entries are immutable once published, so building the export rows
// (and with them any serialization the caller does) proceeds without
// stalling the submission hot path. At checkpoint scale (10k entries,
// see BenchmarkCacheExport10k) that turns a pause proportional to the
// full copy into one proportional to a pointer append.
func (c *cache) export() []CacheEntry {
	c.mu.Lock()
	refs := make([]*cacheEntry, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		refs = append(refs, el.Value.(*cacheEntry))
	}
	c.mu.Unlock()

	now := c.now()
	out := make([]CacheEntry, 0, len(refs))
	for _, e := range refs {
		if c.ttl > 0 && now.Sub(e.added) >= c.ttl {
			continue
		}
		out = append(out, CacheEntry{Digest: e.key, Result: e.result, Added: e.added})
	}
	return out
}

// peek returns the entry for digest without refreshing recency or
// sweeping TTL (expired entries report ok=false but stay resident for the
// lazy Get sweep). The handoff layer uses it to read entries for pushing
// without disturbing LRU order.
func (c *cache) peek(digest string) (*cacheEntry, bool) {
	c.mu.Lock()
	el, ok := c.entries[digest]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	c.mu.Unlock()
	if c.ttl > 0 && c.now().Sub(e.added) >= c.ttl {
		return nil, false
	}
	return e, true
}

// digests lists the digest of every unexpired resident entry, most
// recently used first — the inventory the handoff layer diffs against
// ring ownership. Like export, only the ref walk holds c.mu.
func (c *cache) digests() []string {
	c.mu.Lock()
	refs := make([]*cacheEntry, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		refs = append(refs, el.Value.(*cacheEntry))
	}
	c.mu.Unlock()

	now := c.now()
	out := make([]string, 0, len(refs))
	for _, e := range refs {
		if c.ttl > 0 && now.Sub(e.added) >= c.ttl {
			continue
		}
		out = append(out, e.key)
	}
	return out
}

// contains reports digest residency without refreshing recency or sweeping
// TTL — a pure membership probe for restore-time validation.
func (c *cache) contains(digest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[digest]
	return ok
}

// Len returns the number of resident entries (expired-but-unswept entries
// included; they are swept lazily on Get).
func (c *cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// removeLocked deletes one element. Caller holds c.mu.
func (c *cache) removeLocked(el *list.Element) {
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	delete(c.entries, e.key)
	c.order.Remove(el)
}
