package l2cache

import (
	"fmt"
	"slices"
	"testing"

	"spybox/internal/arch"
	"spybox/internal/xrand"
)

// refCache is the deliberately naive reference for Cache: every set is
// a list of resident tags in way order plus a recency list, least
// recently used first. Indexing uses plain division and modulo, and
// the partition is just a smaller set capacity.
type refCache struct {
	cfg     Config
	ways    map[int][]uint64 // resident tags in way (fill) order
	recency map[int][]uint64 // resident tags, least recently used first
	limit   int              // usable ways per set
	rng     *xrand.Source    // RandomRepl victim draws

	hits, misses, evictions uint64
	stats                   map[int]SetStats
}

func newRef(cfg Config, rng *xrand.Source) *refCache {
	r := &refCache{cfg: cfg, limit: cfg.Ways, rng: rng, stats: map[int]SetStats{}}
	r.flush()
	return r
}

func (r *refCache) flush() {
	r.ways, r.recency = map[int][]uint64{}, map[int][]uint64{}
}

func (r *refCache) setIndex(pa arch.PA) int {
	pageLines := uint64(r.cfg.PageSize / r.cfg.LineSize)
	idx := uint64(pa) / uint64(r.cfg.LineSize) % uint64(r.cfg.Sets)
	if regions := uint64(r.cfg.Sets) / pageLines; r.cfg.HashIndex && regions > 1 {
		region := mix64(uint64(pa)/uint64(r.cfg.PageSize)) % regions
		idx = idx%pageLines + region*pageLines
	}
	return int(idx)
}

func (r *refCache) access(pa arch.PA) (bool, int) {
	set := r.setIndex(pa)
	tag := uint64(pa) / uint64(r.cfg.LineSize)
	st := r.stats[set]
	defer func() { r.stats[set] = st }()
	rec := r.recency[set]
	if i := slices.Index(rec, tag); i >= 0 {
		r.recency[set] = append(slices.Delete(rec, i, i+1), tag)
		r.hits++
		st.Hits++
		return true, set
	}
	r.misses++
	st.Misses++
	ws := r.ways[set]
	if len(ws) < r.limit {
		r.ways[set] = append(ws, tag)
	} else {
		r.evictions++
		victim := rec[0]
		if r.cfg.Policy == RandomRepl {
			victim = ws[r.rng.Intn(r.limit)]
		}
		ws[slices.Index(ws, victim)] = tag
		i := slices.Index(rec, victim)
		rec = slices.Delete(rec, i, i+1)
	}
	r.recency[set] = append(rec, tag)
	return false, set
}

// setPartition mirrors Cache.SetPartition: 0 and Ways both mean the
// whole set, and only a change of width flushes.
func (r *refCache) setPartition(ways int) {
	if ways == 0 {
		ways = r.cfg.Ways
	}
	if ways != r.limit {
		r.limit = ways
		r.flush()
	}
}

// TestCacheMatchesNaiveReference drives the optimized cache and the
// reference with the same random stream of accesses and partition
// changes, and demands the same hit and set for every access and the
// same counters at the end.
func TestCacheMatchesNaiveReference(t *testing.T) {
	geoms := []Config{
		// 4 lines per page over 16 sets: 4 hashed regions.
		{Sets: 16, Ways: 4, LineSize: 64, PageSize: 256, HashIndex: true},
		// One region: the hash has nothing to choose.
		{Sets: 8, Ways: 3, LineSize: 64, PageSize: 1024, HashIndex: true},
		{Sets: 16, Ways: 4, LineSize: 64, PageSize: 256},
	}
	for gi, geom := range geoms {
		for _, policy := range []ReplacementPolicy{LRU, RandomRepl} {
			cfg := geom
			cfg.Policy = policy
			t.Run(fmt.Sprintf("geom%d/%v", gi, policy), func(t *testing.T) {
				const seed = 0xd1ff
				c := MustNew(cfg, xrand.New(seed))
				ref := newRef(cfg, xrand.New(seed))
				stream := xrand.New(uint64(gi)<<8 | uint64(policy))
				// A pool a few times the cache's capacity, so the
				// stream mixes hits, cold fills and evictions.
				pool := make([]arch.PA, 3*cfg.Sets*cfg.Ways)
				for i := range pool {
					pool[i] = arch.PA(stream.Intn(64*cfg.PageSize)) &^ arch.PA(cfg.LineSize-1)
				}
				for op := 0; op < 20000; op++ {
					if stream.Intn(500) == 0 {
						ways := stream.Intn(cfg.Ways + 1)
						if err := c.SetPartition(ways); err != nil {
							t.Fatal(err)
						}
						ref.setPartition(ways)
						continue
					}
					// Offsets within the line must not matter.
					pa := pool[stream.Intn(len(pool))] + arch.PA(stream.Intn(cfg.LineSize))
					hit, set := c.Access(pa)
					wantHit, wantSet := ref.access(pa)
					if hit != wantHit || set != wantSet {
						t.Fatalf("op %d, pa %#x: Access = (%v, set %d), reference (%v, set %d)",
							op, uint64(pa), hit, set, wantHit, wantSet)
					}
				}
				hits, misses, evictions := c.Totals()
				if hits != ref.hits || misses != ref.misses || evictions != ref.evictions {
					t.Errorf("Totals = %d/%d/%d hits/misses/evictions, reference %d/%d/%d",
						hits, misses, evictions, ref.hits, ref.misses, ref.evictions)
				}
				if ref.evictions == 0 {
					t.Error("stream never evicted; it does not exercise replacement")
				}
				for set, got := range c.SetCounters() {
					if got != ref.stats[set] {
						t.Errorf("set %d counters = %+v, reference %+v", set, got, ref.stats[set])
					}
				}
			})
		}
	}
}
