package service

import (
	"testing"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

func TestCacheKeyDiscriminates(t *testing.T) {
	base := CacheKey(1, "small", "p100-dgx1", "fig4")
	for name, other := range map[string]string{
		"seed":       CacheKey(2, "small", "p100-dgx1", "fig4"),
		"scale":      CacheKey(1, "paper", "p100-dgx1", "fig4"),
		"arch":       CacheKey(1, "small", "v100-dgx2", "fig4"),
		"experiment": CacheKey(1, "small", "p100-dgx1", "fig9"),
		"model":      cacheKey(spybox.ModelVersion+"-other", 1, "small", "p100-dgx1", "fig4"),
	} {
		if other == base {
			t.Errorf("key ignores %s", name)
		}
	}
	if CacheKey(1, "small", "p100-dgx1", "fig4") != base {
		t.Error("key is not stable")
	}
}

func TestCacheHitMissCountersAndIsolation(t *testing.T) {
	c := NewCache()
	key := CacheKey(1, "small", "p100-dgx1", "fig4")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	r := report.New("fig4", "timing")
	r.SetMetric("local_boundary", "cycles", 400)
	if err := c.Put(key, r); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || got.Metrics["local_boundary"] != 400 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	// Mutating a returned result must not leak into the cache.
	got.SetMetric("local_boundary", "cycles", 999)
	again, _ := c.Get(key)
	if again.Metrics["local_boundary"] != 400 {
		t.Error("cache entry mutated through a returned result")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses; want 2, 1", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

// TestCacheCorruptedEntryDropKeepsOrderBounded is the regression test
// for the order-list leak: dropping a corrupted entry on Get used to
// leave its key in the FIFO order list, so each corrupt→drop→re-Put
// cycle grew the list by one forever (and eviction accounting drifted
// with it).
func TestCacheCorruptedEntryDropKeepsOrderBounded(t *testing.T) {
	c := NewCacheSize(4)
	key := CacheKey(1, "small", "p100-dgx1", "fig4")
	for cycle := 0; cycle < 10; cycle++ {
		if err := c.Put(key, report.New("fig4", "t")); err != nil {
			t.Fatal(err)
		}
		// Corrupt the stored bytes in place, as disk rot or a codec
		// bug would.
		c.mu.Lock()
		c.entries[key] = []byte("not a report document")
		c.mu.Unlock()
		if _, ok := c.Get(key); ok {
			t.Fatal("corrupted entry served")
		}
		if c.Len() != 0 {
			t.Fatalf("cycle %d: corrupted entry not dropped (Len %d)", cycle, c.Len())
		}
		c.mu.Lock()
		orderLen := len(c.order)
		c.mu.Unlock()
		if orderLen != 0 {
			t.Fatalf("cycle %d: dropped key still in order (len %d)", cycle, orderLen)
		}
	}
	// The cache still works and evicts correctly after the churn.
	put := func(seed uint64) string {
		k := CacheKey(seed, "small", "p100-dgx1", "fig4")
		if err := c.Put(k, report.New("fig4", "t")); err != nil {
			t.Fatal(err)
		}
		return k
	}
	keys := []string{put(1), put(2), put(3), put(4), put(5)}
	if c.Len() != 4 {
		t.Fatalf("Len = %d after overflow, want 4", c.Len())
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.Get(keys[4]); !ok {
		t.Error("newest entry evicted")
	}
}

func TestCacheEvictsOldestAtLimit(t *testing.T) {
	c := NewCacheSize(2)
	put := func(seed uint64) string {
		key := CacheKey(seed, "small", "p100-dgx1", "fig4")
		if err := c.Put(key, report.New("fig4", "t")); err != nil {
			t.Fatal(err)
		}
		return key
	}
	k1, k2, k3 := put(1), put(2), put(3)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after overflow, want 2", c.Len())
	}
	if _, ok := c.Get(k1); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, k := range []string{k2, k3} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("recent entry %s evicted", k[:8])
		}
	}
	// Re-putting an existing key is an update, not growth.
	put(3)
	if c.Len() != 2 {
		t.Errorf("Len = %d after re-put", c.Len())
	}
}
