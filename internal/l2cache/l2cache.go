// Package l2cache models the P100's L2 data cache: physically indexed,
// set-associative, 128 B lines, true LRU (the paper's reverse
// engineering in Table I finds 2048 sets x 16 ways with LRU-like
// deterministic replacement).
//
// Two behaviours matter for the attacks and are modelled faithfully:
//
//   - Physical indexing with an index hash. The attacker does not know
//     virtual-to-physical placement, so it cannot compute which set an
//     address lands in; but the line-offset-within-page bits are used
//     verbatim, so addresses within one page index *consecutive* sets.
//     The hash only mixes physical frame bits into the index bits above
//     the page, exactly the structure the paper exploits ("the data
//     belonging to a page is indexed consecutively in the cache").
//
//   - Deterministic LRU. Accessing 16 distinct conflicting lines then a
//     17th always evicts the oldest, which is what makes eviction-set
//     discovery (Alg. 1) and the every-16th-access eviction staircase
//     (Fig. 5) work.
//
// Each set is stored as a stack of resident tags, most recently used
// first (Mattson et al.'s LRU stack, IBM Systems Journal 9(2), 1970):
// a hit moves its tag to the top, a miss pushes the new tag on top and,
// in a full set, the bottom tag falls off as the LRU victim. Ways are
// only ever invalidated by a whole-cache flush and a miss fills the
// first invalid way, so a set's valid ways are always a prefix of its
// slots and a per-set fill count is the whole of its valid state.
//
// The cache is not safe for concurrent use; the simulation engine
// serializes all accesses machine-wide.
package l2cache

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"spybox/internal/arch"
	"spybox/internal/xrand"
)

// ReplacementPolicy selects how a victim way is chosen on a miss in a
// full set.
type ReplacementPolicy int

const (
	// LRU evicts the least recently used way (paper-observed policy).
	LRU ReplacementPolicy = iota
	// RandomRepl evicts a uniformly random way. Used by the ablation
	// benches to show the attack degrading under randomized
	// replacement (a proposed class of defense).
	RandomRepl
)

// String names the policy for reports.
func (p ReplacementPolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case RandomRepl:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config fixes a cache geometry. The zero Config is invalid; use
// P100Config for the real geometry or a smaller one in unit tests.
type Config struct {
	Sets     int // number of sets, power of two
	Ways     int // associativity
	LineSize int // bytes per line, power of two
	PageSize int // bytes per page (for index hashing), power of two
	Policy   ReplacementPolicy
	// HashIndex enables mixing of frame bits into the above-page index
	// bits. The real hardware hashes; disabling it is an ablation.
	HashIndex bool
}

// P100Config returns the geometry of the Tesla P100 L2 as reverse
// engineered in the paper (Table I).
func P100Config() Config {
	return FromProfile(arch.P100DGX1())
}

// FromProfile builds the cache geometry of an architecture profile:
// the profile's L2 shape over the global VM page size, with the
// hardware's LRU policy and index hash (both of which remain
// per-machine ablations via the Config fields).
func FromProfile(p arch.Profile) Config {
	return Config{
		Sets:      p.L2Sets,
		Ways:      p.L2Ways,
		LineSize:  p.L2LineSize,
		PageSize:  arch.PageSize,
		Policy:    LRU,
		HashIndex: true,
	}
}

// Validate reports a descriptive error for malformed geometry.
func (c Config) Validate() error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("l2cache: Sets must be a positive power of two, got %d", c.Sets)
	case c.Ways <= 0 || c.Ways > math.MaxUint16:
		return fmt.Errorf("l2cache: Ways must be in [1,%d], got %d", math.MaxUint16, c.Ways)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("l2cache: LineSize must be a positive power of two, got %d", c.LineSize)
	case c.PageSize < c.LineSize || c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("l2cache: PageSize must be a power of two >= LineSize, got %d", c.PageSize)
	}
	return nil
}

// SizeBytes returns the cache capacity implied by the geometry.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineSize }

// LinesPerPage returns how many cache lines one page holds.
func (c Config) LinesPerPage() int { return c.PageSize / c.LineSize }

// SetStats accumulates per-set hit/miss counts. The side channel's
// memorygram is, in essence, the time series of these counters as seen
// through the spy's probes.
type SetStats struct {
	Hits, Misses uint64
}

// Cache is one GPU's L2.
type Cache struct {
	//spylint:allow resetcomplete geometry config is fixed at construction; Reset rewinds contents
	cfg Config
	// tags holds every set's line slots as one flat array (set i
	// occupies tags[i*Ways:(i+1)*Ways]), of which the first fill[i] are
	// valid. Under LRU a set's valid tags are kept most recently used
	// first; under RandomRepl recency is unused and they stay in way
	// order.
	//spylint:allow resetcomplete slots at or past a set's fill count are never read, so clearing fill invalidates them
	tags      []uint64
	fill      []uint16
	rng       *xrand.Source // used only by RandomRepl
	stats     []SetStats
	hits      uint64
	misses    uint64
	evictions uint64

	// partWays restricts fills to the first partWays ways of every set
	// while a runtime partition is active (0 = off, the whole set). The
	// remaining ways stay invalid after the partition flush, shrinking
	// the effective associativity — the paper's cache-partitioning
	// mitigation as a live defense action rather than a build-time
	// config.
	partWays int

	//spylint:allow resetcomplete derived geometry, recomputed only when cfg changes
	lineShift int
	//spylint:allow resetcomplete derived geometry, recomputed only when cfg changes
	setMask uint64
	//spylint:allow resetcomplete derived geometry, recomputed only when cfg changes
	pageShift int
	// pageLines is the number of lines per page.
	//spylint:allow resetcomplete derived geometry, recomputed only when cfg changes
	pageLines uint64
	// regions is sets / linesPerPage, >=1 and a power of two.
	//spylint:allow resetcomplete derived geometry, recomputed only when cfg changes
	regions uint64
}

// New builds a cache with the given geometry. The rng seeds random
// replacement only and may be nil when Policy is LRU.
func New(cfg Config, rng *xrand.Source) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == RandomRepl && rng == nil {
		return nil, fmt.Errorf("l2cache: random replacement requires an rng")
	}
	c := &Cache{
		cfg:       cfg,
		tags:      make([]uint64, cfg.Sets*cfg.Ways),
		fill:      make([]uint16, cfg.Sets),
		rng:       rng,
		stats:     make([]SetStats, cfg.Sets),
		lineShift: bits.TrailingZeros64(uint64(cfg.LineSize)),
		setMask:   uint64(cfg.Sets - 1),
		pageShift: bits.TrailingZeros64(uint64(cfg.PageSize)),
		pageLines: uint64(cfg.LinesPerPage()),
	}
	c.regions = 1
	if uint64(cfg.Sets) > c.pageLines {
		c.regions = uint64(cfg.Sets) / c.pageLines
	}
	return c, nil
}

// MustNew is New that panics on error, for fixed known-good configs.
func MustNew(cfg Config, rng *xrand.Source) *Cache {
	c, err := New(cfg, rng)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// mix64 is a fast invertible mixer (Stafford variant 13) used for the
// index hash. It stands in for the undocumented hardware hash: the
// attacker must treat set placement of each page as opaque.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SetIndex returns the set the physical address maps to. Within one
// page the mapping is consecutive; across pages the hash scatters each
// page into one of the Sets/LinesPerPage aligned page-sized regions.
func (c *Cache) SetIndex(pa arch.PA) int {
	line := uint64(pa) >> c.lineShift
	idx := line & c.setMask
	if c.cfg.HashIndex && c.regions > 1 {
		frame := uint64(pa) >> c.pageShift
		region := mix64(frame) & (c.regions - 1)
		// Replace the above-page index bits with the hashed region.
		idx = (idx & (c.pageLines - 1)) | region*c.pageLines
	}
	return int(idx)
}

// tagOf returns the tag stored for a line (everything above the line
// offset; the set index is not folded out so aliasing is impossible).
func (c *Cache) tagOf(pa arch.PA) uint64 {
	return uint64(pa) >> c.lineShift
}

// Access performs a cached read of the line containing pa: on a hit
// under LRU the line moves to the top of its set's recency stack; on a
// miss the line is filled, evicting per the replacement policy. It
// returns whether the access hit and which set it touched.
//
// A set never holds more valid ways than an active partition allows:
// the partition flush emptied it and fills stop at the boundary.
//
//spylint:hotpath
func (c *Cache) Access(pa arch.PA) (hit bool, set int) {
	set = c.SetIndex(pa)
	tag := c.tagOf(pa)
	lru := c.cfg.Policy == LRU
	base := set * c.cfg.Ways
	n := int(c.fill[set])
	ts := c.tags[base : base+n]
	// Scan from the LRU end: Prime+Probe re-touches a set's lines in
	// the order it primed them, so about half of all hits in the attack
	// experiments are on the set's least recently used tag.
	for i := n - 1; i >= 0; i-- {
		if ts[i] == tag {
			if lru {
				// Shift the more recent tags down one and put this one
				// on top.
				copy(ts[1:i+1], ts[:i])
				ts[0] = tag
			}
			c.hits++
			c.stats[set].Hits++
			return true, set
		}
	}
	c.misses++
	c.stats[set].Misses++
	limit := c.cfg.Ways
	if c.partWays > 0 {
		limit = c.partWays
	}
	if n < limit {
		c.fill[set]++
	} else {
		c.evictions++
	}
	ts = c.tags[base : base+limit]
	switch {
	case lru:
		// Push on top; in a full set the bottom (LRU) tag falls off.
		copy(ts[1:min(n+1, limit)], ts)
		ts[0] = tag
	case n < limit:
		ts[n] = tag
	default:
		ts[c.rng.Intn(limit)] = tag
	}
	return false, set
}

// Contains reports whether the line holding pa is currently cached,
// without touching LRU state or counters. Test helper and detector
// hook; the attacks themselves never use it (they only see timing).
func (c *Cache) Contains(pa arch.PA) bool {
	set := c.SetIndex(pa)
	base := set * c.cfg.Ways
	return slices.Contains(c.tags[base:base+int(c.fill[set])], c.tagOf(pa))
}

// SetPartition restricts the cache to the first ways ways of every set
// (0 restores full associativity). Repartitioning hardware invalidates
// residency, so the cache is flushed on every change. While active,
// fills never touch ways at or beyond the boundary, so an eviction set
// sized for the full associativity self-thrashes — the defender's
// runtime partition lever.
func (c *Cache) SetPartition(ways int) error {
	if ways < 0 || ways > c.cfg.Ways {
		return fmt.Errorf("l2cache: partition of %d ways outside [0,%d]", ways, c.cfg.Ways)
	}
	if ways == c.cfg.Ways {
		ways = 0
	}
	if ways == c.partWays {
		return nil
	}
	c.partWays = ways
	c.Flush()
	return nil
}

// PartitionWays returns the active partition width (0 = full set).
func (c *Cache) PartitionWays() int { return c.partWays }

// Totals returns machine counters since construction or the last
// ResetStats.
func (c *Cache) Totals() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// SetCounters returns a copy of the per-set hit/miss counters.
func (c *Cache) SetCounters() []SetStats {
	out := make([]SetStats, len(c.stats))
	copy(out, c.stats)
	return out
}

// ResetStats clears all counters without disturbing cache contents.
// The per-set counters always sum to the hits and misses totals, so
// when both totals are zero there is no per-set counter to clear — the
// case for every cache a machine has just allocated.
func (c *Cache) ResetStats() {
	if c.hits != 0 || c.misses != 0 {
		clear(c.stats)
	}
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// Flush invalidates the entire cache (used between experiment trials;
// no user-level flush exists on the real hardware, which is precisely
// why the attacks use eviction sets instead). Only the per-set fill
// counts are cleared: slots past a set's fill count are never read.
func (c *Cache) Flush() {
	clear(c.fill)
}

// Reset restores the cache to its freshly constructed state: all lines
// invalid, no partition, counters cleared. When parent is
// non-nil the replacement RNG is re-derived from it exactly as New
// receives it from parent.Split(), consuming one parent draw — this is
// what lets a pooled machine replay its construction-time RNG
// derivation sequence and stay byte-identical to a fresh build.
func (c *Cache) Reset(parent *xrand.Source) {
	c.Flush()
	c.partWays = 0
	c.ResetStats()
	if parent != nil {
		if c.rng == nil {
			c.rng = parent.Split()
		} else {
			c.rng.ReseedFrom(parent)
		}
	}
}

// Checkpoint is a compact copy of a cache's contents and counters:
// only the sets that hold a valid line or a non-zero counter are kept.
// A discovered attack pair occupies a few sets of a whole box's L2s,
// an aligned channel one device's worth, so a checkpoint is a small
// fraction of the tag arrays it stands for. It is never modified after
// Checkpoint returns, so any number of caches may restore from it
// concurrently.
type Checkpoint struct {
	cfg  Config
	sets []setCheckpoint
	// tags holds the kept sets' valid tags, set after set in sets'
	// order, each set's in recency order.
	tags                    []uint64
	hits, misses, evictions uint64
	partWays                int
	rng                     *xrand.Source // nil when the cache has none
}

// setCheckpoint is one kept set: its index, fill count and counters.
type setCheckpoint struct {
	set   int
	fill  uint16
	stats SetStats
}

// Checkpoint returns a compact copy of c's state: contents and recency
// order, fill counts, partition, counters and the replacement RNG's
// state. It shares nothing mutable with c.
func (c *Cache) Checkpoint() *Checkpoint {
	cp := &Checkpoint{cfg: c.cfg, hits: c.hits, misses: c.misses, evictions: c.evictions, partWays: c.partWays}
	ways := c.cfg.Ways
	for set, n := range c.fill {
		if n == 0 && c.stats[set] == (SetStats{}) {
			continue
		}
		cp.sets = append(cp.sets, setCheckpoint{set: set, fill: n, stats: c.stats[set]})
		cp.tags = append(cp.tags, c.tags[set*ways:set*ways+int(n)]...)
	}
	if c.rng != nil {
		rng := *c.rng
		cp.rng = &rng
	}
	return cp
}

// Restore makes c's state an exact copy of checkpoint cp, taken from a
// cache of the same geometry: every set cp does not keep is empty with
// zero counters afterwards. c keeps its own arrays, so later accesses
// to c never reach cp.
func (c *Cache) Restore(cp *Checkpoint) {
	if c.cfg != cp.cfg {
		panic("l2cache: Restore across cache geometries")
	}
	c.Flush()
	c.ResetStats()
	ways := c.cfg.Ways
	tags := cp.tags
	for _, s := range cp.sets {
		n := int(s.fill)
		copy(c.tags[s.set*ways:s.set*ways+n], tags[:n])
		tags = tags[n:]
		c.fill[s.set] = s.fill
		c.stats[s.set] = s.stats
	}
	c.hits, c.misses, c.evictions = cp.hits, cp.misses, cp.evictions
	c.partWays = cp.partWays
	if cp.rng != nil {
		if c.rng == nil {
			c.rng = new(xrand.Source)
		}
		*c.rng = *cp.rng
	}
}

// OccupiedWays returns how many valid lines set holds (test helper).
func (c *Cache) OccupiedWays(set int) int { return int(c.fill[set]) }
