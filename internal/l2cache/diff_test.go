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

// reset mirrors Cache.Reset(nil): empty sets, no partition, counters
// cleared; the replacement RNG runs on.
func (r *refCache) reset() {
	r.flush()
	r.limit = r.cfg.Ways
	r.hits, r.misses, r.evictions = 0, 0, 0
	r.stats = map[int]SetStats{}
}

// lockstep drives a Cache and the reference with the same operations
// and fails at the first disagreement.
type lockstep struct {
	t         testing.TB
	c         *Cache
	ref       *refCache
	evictions uint64 // reference evictions from before the last Reset
}

func newLockstep(t testing.TB, cfg Config) *lockstep {
	const seed = 0xd1ff
	return &lockstep{t: t, c: MustNew(cfg, xrand.New(seed)), ref: newRef(cfg, xrand.New(seed))}
}

func (l *lockstep) access(op int, pa arch.PA) {
	l.t.Helper()
	hit, set := l.c.Access(pa)
	wantHit, wantSet := l.ref.access(pa)
	if hit != wantHit || set != wantSet {
		l.t.Fatalf("op %d, pa %#x: Access = (%v, set %d), reference (%v, set %d)",
			op, uint64(pa), hit, set, wantHit, wantSet)
	}
}

func (l *lockstep) partition(ways int) {
	l.t.Helper()
	if err := l.c.SetPartition(ways); err != nil {
		l.t.Fatal(err)
	}
	l.ref.setPartition(ways)
}

func (l *lockstep) flush() {
	l.c.Flush()
	l.ref.flush()
}

func (l *lockstep) reset() {
	l.evictions += l.ref.evictions
	l.c.Reset(nil)
	l.ref.reset()
}

// spotCheck compares Contains for pa and OccupiedWays for its set,
// neither of which may disturb recency.
func (l *lockstep) spotCheck(op int, pa arch.PA) {
	l.t.Helper()
	set := l.ref.setIndex(pa)
	want := slices.Contains(l.ref.ways[set], uint64(pa)/uint64(l.ref.cfg.LineSize))
	if got := l.c.Contains(pa); got != want {
		l.t.Fatalf("op %d, pa %#x: Contains = %v, reference %v", op, uint64(pa), got, want)
	}
	if got, want := l.c.OccupiedWays(set), len(l.ref.ways[set]); got != want {
		l.t.Fatalf("op %d: set %d OccupiedWays = %d, reference %d", op, set, got, want)
	}
}

// checkCounters compares the machine and per-set counters.
func (l *lockstep) checkCounters() {
	l.t.Helper()
	hits, misses, evictions := l.c.Totals()
	if hits != l.ref.hits || misses != l.ref.misses || evictions != l.ref.evictions {
		l.t.Errorf("Totals = %d/%d/%d hits/misses/evictions, reference %d/%d/%d",
			hits, misses, evictions, l.ref.hits, l.ref.misses, l.ref.evictions)
	}
	for set, got := range l.c.SetCounters() {
		if got != l.ref.stats[set] {
			l.t.Errorf("set %d counters = %+v, reference %+v", set, got, l.ref.stats[set])
		}
	}
}

// diffGeoms are the geometries the reference checks run on. Few sets
// keep evictions frequent; the 16-, 24- and 32-way shapes are the
// shipped P100, V100 and A100 associativities.
var diffGeoms = []Config{
	// 4 lines per page over 16 sets: 4 hashed regions.
	{Sets: 16, Ways: 4, LineSize: 64, PageSize: 256, HashIndex: true},
	// One region: the hash has nothing to choose.
	{Sets: 8, Ways: 3, LineSize: 64, PageSize: 1024, HashIndex: true},
	{Sets: 16, Ways: 4, LineSize: 64, PageSize: 256},
	{Sets: 4, Ways: 16, LineSize: 64, PageSize: 128, HashIndex: true},
	{Sets: 4, Ways: 24, LineSize: 128, PageSize: 256, HashIndex: true},
	{Sets: 2, Ways: 32, LineSize: 64, PageSize: 128},
}

// TestCacheMatchesNaiveReference drives the optimized cache and the
// reference with the same random stream of accesses, partition
// changes, flushes and resets, and demands the same hit and set for
// every access, the same Contains and OccupiedWays at spot checks and
// the same counters at the end. Because a flushed reference set is
// empty, a stale tag resurfacing from past a set's fill count would
// show up as a hit the reference does not have.
func TestCacheMatchesNaiveReference(t *testing.T) {
	for gi, geom := range diffGeoms {
		for _, policy := range []ReplacementPolicy{LRU, RandomRepl} {
			cfg := geom
			cfg.Policy = policy
			t.Run(fmt.Sprintf("geom%d/%v", gi, policy), func(t *testing.T) {
				l := newLockstep(t, cfg)
				stream := xrand.New(uint64(gi)<<8 | uint64(policy))
				// A pool a few times the cache's capacity, so the
				// stream mixes hits, cold fills and evictions.
				pool := make([]arch.PA, 3*cfg.Sets*cfg.Ways)
				span := max(64*cfg.PageSize, 4*cfg.SizeBytes())
				for i := range pool {
					pool[i] = arch.PA(stream.Intn(span)) &^ arch.PA(cfg.LineSize-1)
				}
				for op := 0; op < 20000; op++ {
					switch k := stream.Intn(1000); {
					case k < 2:
						l.partition(stream.Intn(cfg.Ways + 1))
					case k == 2:
						l.flush()
					case k == 3:
						l.reset()
					default:
						// Offsets within the line must not matter.
						pa := pool[stream.Intn(len(pool))] + arch.PA(stream.Intn(cfg.LineSize))
						l.access(op, pa)
						if k%16 == 0 {
							l.spotCheck(op, pool[stream.Intn(len(pool))])
						}
					}
				}
				l.checkCounters()
				if l.evictions+l.ref.evictions == 0 {
					t.Error("stream never evicted; it does not exercise replacement")
				}
			})
		}
	}
}

// FuzzCacheMatchesReference decodes its input into a lockstep run. The
// first byte picks the geometry and policy; then each byte is one
// operation: 0 is a partition change whose width is the next byte, 1 a
// flush, 2 a Reset, and any other value b an access to line b-3 (some
// offset into it), followed by a spot check of another line. One byte
// per operation keeps inputs short, which keeps minimization fast.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 4, 3, 0, 2, 4, 1, 3})
	f.Add([]byte{7, 9, 1, 2, 9, 2, 0, 1, 9, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := diffGeoms[int(data[0])%len(diffGeoms)]
		cfg.Policy = ReplacementPolicy(int(data[0]) / len(diffGeoms) % 2)
		l := newLockstep(t, cfg)
		const lines = 256 - 3
		lineAddr := func(line, off int) arch.PA { return arch.PA(line*cfg.LineSize + off%cfg.LineSize) }
		for op := 1; op < len(data) && op < 4096; op++ {
			switch b := int(data[op]); b {
			case 0:
				if op++; op < len(data) {
					l.partition(int(data[op]) % (cfg.Ways + 1))
				}
			case 1:
				l.flush()
			case 2:
				l.reset()
			default:
				l.access(op, lineAddr(b-3, 7*b))
				l.spotCheck(op, lineAddr((5*b+1)%lines, 0))
			}
		}
		l.checkCounters()
	})
}
