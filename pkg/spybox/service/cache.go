// The content-addressed result cache. Results are a pure function of
// (seed, scale, arch, experiment) — the determinism the golden tests
// pin — so a duplicate submission can be answered with the stored
// bytes instead of a re-simulation. Parallel is deliberately not part
// of the key: it changes wall time, never results. The schema version
// is part of the key so a build that changes the report layout can
// never serve a stale shape, and the model version so a build whose
// simulator draws different numbers never serves another's values.

package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

// CacheKey addresses one experiment result by content: the report
// schema version, the simulator's model version, every Config field
// results depend on, and the experiment ID. Callers pass normalized
// values (defaulted seed, canonical scale spelling, resolved profile
// name) so equivalent specs share an entry.
func CacheKey(seed uint64, scale, arch, experiment string) string {
	return cacheKey(spybox.ModelVersion, seed, scale, arch, experiment)
}

// cacheKey is CacheKey under the given model version.
func cacheKey(model string, seed uint64, scale, arch, experiment string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s\x00%s\x00%s", report.Schema, model, seed, scale, arch, experiment)
	return hex.EncodeToString(h.Sum(nil))
}

// Cache maps CacheKeys to encoded results, counting hits and misses.
// Entries are stored as their report/v1 encoding and decoded afresh on
// every Get, so no caller can mutate another's result; the codec's
// pinned round-trip stability is what keeps a cached response
// byte-identical to the simulated one. The cache is bounded: past the
// limit the oldest entry is evicted (each entry is a whole report
// document, and a stream of distinct seeds would otherwise grow the
// process without bound).
type Cache struct {
	mu           sync.Mutex
	entries      map[string][]byte
	order        []string // insertion order, for FIFO eviction
	limit        int
	hits, misses atomic.Int64
}

// DefaultCacheEntries bounds NewCache; use NewCacheSize to choose.
const DefaultCacheEntries = 1024

// NewCache returns an empty cache holding up to DefaultCacheEntries.
func NewCache() *Cache { return NewCacheSize(DefaultCacheEntries) }

// NewCacheSize returns an empty cache holding up to limit entries
// (<= 0 means DefaultCacheEntries).
func NewCacheSize(limit int) *Cache {
	if limit <= 0 {
		limit = DefaultCacheEntries
	}
	return &Cache{entries: map[string][]byte{}, limit: limit}
}

// Get returns a fresh copy of the cached result for key, counting the
// lookup as a hit or a miss.
func (c *Cache) Get(key string) (*report.Result, bool) {
	c.mu.Lock()
	b, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	results, err := report.Decode(bytes.NewReader(b))
	if err != nil || len(results) != 1 {
		// An undecodable entry can only mean cache corruption; treat
		// it as a miss and drop it rather than serving garbage. The
		// key must leave order too: a dangling order entry would be
		// re-appended by the next Put of this key, and each repeat of
		// that cycle would grow order by one forever.
		c.mu.Lock()
		delete(c.entries, key)
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return results[0], true
}

// Put stores the result under key, evicting the oldest entry when
// full. Encoding failures are returned so the caller can decide to
// serve fresh results uncached rather than fail the job.
func (c *Cache) Put(key string, r *report.Result) error {
	var buf bytes.Buffer
	if err := report.Encode(&buf, r); err != nil {
		return err
	}
	c.mu.Lock()
	if _, exists := c.entries[key]; !exists {
		c.order = append(c.order, key)
	}
	c.entries[key] = buf.Bytes()
	for len(c.entries) > c.limit && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.mu.Unlock()
	return nil
}

// Stats returns the hit and miss counts since construction.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
