package fleet

import (
	"testing"
	"time"

	"ioagent/internal/ioagent"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
)

// fakeClock is a manually advanced time source for TTL tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func res(text string) *ioagent.Result        { return &ioagent.Result{Text: text} }
func mustHit(t *testing.T, c *cache, k string) *ioagent.Result {
	t.Helper()
	r, ok := c.Get(k)
	if !ok {
		t.Fatalf("expected cache hit for %q", k)
	}
	return r
}

func TestCacheLRUEviction(t *testing.T) {
	clk := newFakeClock()
	c := newCache(2, 0, clk.now)
	c.Put("a", res("A"))
	c.Put("b", res("B"))
	mustHit(t, c, "a") // refresh a: b is now least recently used
	c.Put("c", res("C"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if mustHit(t, c, "a").Text != "A" || mustHit(t, c, "c").Text != "C" {
		t.Error("a and c should survive eviction")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	clk := newFakeClock()
	c := newCache(10, time.Minute, clk.now)
	c.Put("a", res("A"))
	clk.advance(59 * time.Second)
	mustHit(t, c, "a")
	clk.advance(2 * time.Second) // 61s since Put: expired
	if _, ok := c.Get("a"); ok {
		t.Error("entry should have expired after TTL")
	}
	if c.Len() != 0 {
		t.Errorf("expired entry should be swept on Get, len = %d", c.Len())
	}
}

func TestCachePutRefreshesTTL(t *testing.T) {
	clk := newFakeClock()
	c := newCache(10, time.Minute, clk.now)
	c.Put("a", res("old"))
	clk.advance(50 * time.Second)
	c.Put("a", res("new")) // refresh value and TTL clock
	clk.advance(30 * time.Second)
	if got := mustHit(t, c, "a"); got.Text != "new" {
		t.Errorf("got %q, want refreshed value", got.Text)
	}
	if c.Len() != 1 {
		t.Errorf("re-put must not duplicate the entry, len = %d", c.Len())
	}
}

// TestCacheIngestClampsFutureAdded: a pushed entry dated an hour in the
// future (a skewed or forged peer clock) expires on the normal TTL rather
// than an hour late.
func TestCacheIngestClampsFutureAdded(t *testing.T) {
	clk := newFakeClock()
	pool := New(llm.NewSim(), Config{
		Workers: 1, CacheTTL: time.Minute, now: clk.now,
		Agent: ioagent.Options{Index: knowledge.BuildIndex()},
	})
	defer pool.Close()
	if !pool.CacheIngest("d1", "diagnosis for d1", clk.now().Add(time.Hour)) {
		t.Fatal("future-dated push was not ingested")
	}
	clk.advance(59 * time.Second)
	if _, ok := pool.CacheEntryFor("d1"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clk.advance(2 * time.Second) // 61s since the push
	if _, ok := pool.CacheEntryFor("d1"); ok {
		t.Fatal("future-dated push outlived its TTL")
	}
}

func TestCacheNoTTL(t *testing.T) {
	clk := newFakeClock()
	c := newCache(10, -1, clk.now) // negative TTL: entries never expire
	c.Put("a", res("A"))
	clk.advance(1000 * time.Hour)
	mustHit(t, c, "a")
}

func TestCacheDisabled(t *testing.T) {
	c := newCache(-1, 0, nil)
	c.Put("a", res("A"))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache should never hit")
	}
	if c.Len() != 0 {
		t.Error("disabled cache should stay empty")
	}
}
