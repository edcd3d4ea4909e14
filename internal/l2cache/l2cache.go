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
// The cache is not safe for concurrent use; the simulation engine
// serializes all accesses machine-wide.
package l2cache

import (
	"fmt"
	"math/bits"

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
	case c.Ways <= 0:
		return fmt.Errorf("l2cache: Ways must be positive, got %d", c.Ways)
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

// way is one cache line slot.
type way struct {
	valid bool
	tag   uint64
	used  uint64 // global LRU stamp
}

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
	// ways holds every line slot as one flat array (set i occupies
	// ways[i*Ways:(i+1)*Ways]): one allocation per cache instead of
	// one per set, and Flush is a single memclr — both of which matter
	// once machines are pooled and reset between trials.
	ways      []way
	stamp     uint64
	rng       *xrand.Source // used only by RandomRepl
	stats     []SetStats
	hits      uint64
	misses    uint64
	fills     uint64
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
		ways:      make([]way, cfg.Sets*cfg.Ways),
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

// set returns the way slots of one set.
func (c *Cache) set(i int) []way {
	return c.ways[i*c.cfg.Ways : (i+1)*c.cfg.Ways]
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
// the LRU stamp refreshes; on a miss the line is filled, evicting per
// the replacement policy. It returns whether the access hit and which
// set it touched.
//
// Fills never touch ways at or beyond an active partition, and the
// partition flush left them invalid, so one scan of the ways below it
// finds the hit, the first invalid way and the LRU way.
//
//spylint:hotpath
func (c *Cache) Access(pa arch.PA) (hit bool, set int) {
	set = c.SetIndex(pa)
	tag := c.tagOf(pa)
	c.stamp++
	ws := c.set(set)
	if c.partWays > 0 {
		ws = ws[:c.partWays]
	}
	free, lru := -1, 0
	for i := range ws {
		switch {
		case !ws[i].valid:
			if free < 0 {
				free = i
			}
		case ws[i].tag == tag:
			ws[i].used = c.stamp
			c.hits++
			c.stats[set].Hits++
			return true, set
		case ws[i].used < ws[lru].used:
			lru = i
		}
	}
	c.misses++
	c.stats[set].Misses++
	victim := free
	if victim < 0 {
		c.evictions++
		victim = lru
		if c.cfg.Policy == RandomRepl {
			victim = c.rng.Intn(len(ws))
		}
	}
	c.fills++
	ws[victim] = way{valid: true, tag: tag, used: c.stamp}
	return false, set
}

// Contains reports whether the line holding pa is currently cached,
// without touching LRU state or counters. Test helper and detector
// hook; the attacks themselves never use it (they only see timing).
func (c *Cache) Contains(pa arch.PA) bool {
	set := c.SetIndex(pa)
	tag := c.tagOf(pa)
	for _, w := range c.set(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
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
func (c *Cache) ResetStats() {
	c.hits, c.misses, c.fills, c.evictions = 0, 0, 0, 0
	for i := range c.stats {
		c.stats[i] = SetStats{}
	}
}

// Flush invalidates the entire cache (used between experiment trials;
// no user-level flush exists on the real hardware, which is precisely
// why the attacks use eviction sets instead). One memclr over the flat
// way array.
func (c *Cache) Flush() {
	clear(c.ways)
}

// Reset restores the cache to its freshly constructed state: all lines
// invalid, the LRU stamp rewound, counters cleared. When parent is
// non-nil the replacement RNG is re-derived from it exactly as New
// receives it from parent.Split(), consuming one parent draw — this is
// what lets a pooled machine replay its construction-time RNG
// derivation sequence and stay byte-identical to a fresh build.
func (c *Cache) Reset(parent *xrand.Source) {
	c.Flush()
	c.stamp = 0
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

// OccupiedWays returns how many valid lines set holds (test helper).
func (c *Cache) OccupiedWays(set int) int {
	n := 0
	for _, w := range c.set(set) {
		if w.valid {
			n++
		}
	}
	return n
}
