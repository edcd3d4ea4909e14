package l2cache

import (
	"testing"
	"testing/quick"

	"spybox/internal/arch"
	"spybox/internal/xrand"
)

// tinyConfig is a small geometry for fast, exact tests: 64 sets, 4
// ways, 128 B lines, 4 KB pages -> 32 lines per page, 2 regions.
func tinyConfig() Config {
	return Config{Sets: 64, Ways: 4, LineSize: 128, PageSize: 4096, Policy: LRU, HashIndex: true}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"p100", P100Config(), true},
		{"tiny", tinyConfig(), true},
		{"zero", Config{}, false},
		{"non-pow2 sets", Config{Sets: 3, Ways: 2, LineSize: 128, PageSize: 4096}, false},
		{"zero ways", Config{Sets: 4, Ways: 0, LineSize: 128, PageSize: 4096}, false},
		{"bad line", Config{Sets: 4, Ways: 2, LineSize: 100, PageSize: 4096}, false},
		{"page < line", Config{Sets: 4, Ways: 2, LineSize: 128, PageSize: 64}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestP100Geometry(t *testing.T) {
	cfg := P100Config()
	if got := cfg.SizeBytes(); got != 4<<20 {
		t.Errorf("P100 L2 size = %d, want 4MB", got)
	}
	if got := cfg.LinesPerPage(); got != 512 {
		t.Errorf("lines per page = %d, want 512", got)
	}
}

func TestRandomReplNeedsRNG(t *testing.T) {
	cfg := tinyConfig()
	cfg.Policy = RandomRepl
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("random replacement without rng should fail")
	}
	if _, err := New(cfg, xrand.New(1)); err != nil {
		t.Fatalf("random replacement with rng failed: %v", err)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := MustNew(tinyConfig(), nil)
	pa := arch.PA(0x1000)
	if hit, _ := c.Access(pa); hit {
		t.Fatal("first access should miss")
	}
	if hit, _ := c.Access(pa); !hit {
		t.Fatal("second access should hit")
	}
	if hit, _ := c.Access(pa + 64); !hit {
		t.Fatal("same-line access should hit")
	}
	if hit, _ := c.Access(pa + 128); hit {
		t.Fatal("next line should miss")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := MustNew(tinyConfig(), nil)
	// Build ways+1 addresses in the same set by construction: same
	// page-offset lines across pages that hash to the same region.
	addrs := sameSetAddrs(c, tinyConfig().Ways+1)
	for _, a := range addrs[:tinyConfig().Ways] {
		c.Access(a)
	}
	for _, a := range addrs[:tinyConfig().Ways] {
		if hit, _ := c.Access(a); !hit {
			t.Fatalf("warm line %#x missed", uint64(a))
		}
	}
	// Insert one more: evicts exactly the LRU line (addrs[0], because
	// the re-access order above made it oldest).
	c.Access(addrs[tinyConfig().Ways])
	if hit, _ := c.Access(addrs[1]); !hit {
		t.Error("addrs[1] should have survived")
	}
	if hit, _ := c.Access(addrs[0]); hit {
		t.Error("LRU line addrs[0] should have been evicted")
	}
}

// sameSetAddrs returns n line addresses that map to one set.
func sameSetAddrs(c *Cache, n int) []arch.PA {
	want := -1
	var out []arch.PA
	for pa := arch.PA(0); len(out) < n; pa += arch.PA(c.cfg.LineSize) {
		s := c.SetIndex(pa)
		if want < 0 {
			want = s
		}
		if s == want {
			out = append(out, pa)
		}
	}
	return out
}

func TestEvictionStaircaseEvery16th(t *testing.T) {
	// The Fig. 5 behaviour at full P100 geometry: accessing W lines of
	// a set keeps them all resident; the W+1st evicts one.
	c := MustNew(P100Config(), nil)
	addrs := sameSetAddrs(c, arch.L2Ways+1)
	for _, a := range addrs[:arch.L2Ways] {
		c.Access(a)
	}
	for _, a := range addrs[:arch.L2Ways] {
		if hit, _ := c.Access(a); !hit {
			t.Fatal("16 lines must co-reside in a 16-way set")
		}
	}
	c.Access(addrs[arch.L2Ways])
	evicted := 0
	for _, a := range addrs[:arch.L2Ways] {
		if !c.Contains(a) {
			evicted++
		}
	}
	if evicted != 1 {
		t.Errorf("exactly one line should be evicted by the 17th, got %d", evicted)
	}
}

func TestPageConsecutiveIndexing(t *testing.T) {
	// Within one page, consecutive lines must map to consecutive sets
	// (the paper's discovery optimization depends on this).
	c := MustNew(P100Config(), nil)
	base := arch.PA(7 * arch.PageSize) // arbitrary page
	first := c.SetIndex(base)
	for i := 1; i < arch.LinesPerPage; i++ {
		got := c.SetIndex(base + arch.PA(i*arch.CacheLineSize))
		if got != first+i {
			t.Fatalf("line %d of page maps to set %d, want %d", i, got, first+i)
		}
	}
	// And the page's base set is region-aligned.
	if first%arch.LinesPerPage != 0 {
		t.Errorf("page base set %d not aligned to page region", first)
	}
}

func TestIndexHashScattersPages(t *testing.T) {
	c := MustNew(P100Config(), nil)
	// With hashing, consecutive pages should not all land in
	// consecutive regions; count distinct regions over many pages.
	regions := make(map[int]bool)
	for p := 0; p < 64; p++ {
		regions[c.SetIndex(arch.PA(p*arch.PageSize))/arch.LinesPerPage] = true
	}
	if len(regions) < 3 {
		t.Errorf("hash left pages in %d regions, want >=3 of 4", len(regions))
	}

	// Without hashing, page p maps to region p mod 4 exactly.
	cfg := P100Config()
	cfg.HashIndex = false
	plain := MustNew(cfg, nil)
	for p := 0; p < 16; p++ {
		got := plain.SetIndex(arch.PA(p*arch.PageSize)) / arch.LinesPerPage
		if got != p%4 {
			t.Errorf("unhashed page %d in region %d, want %d", p, got, p%4)
		}
	}
}

func TestSetIndexStableAndInRange(t *testing.T) {
	c := MustNew(P100Config(), nil)
	rng := xrand.New(5)
	for i := 0; i < 10000; i++ {
		pa := arch.PA(rng.Uint64() % (8 << 30))
		s := c.SetIndex(pa)
		if s < 0 || s >= arch.L2Sets {
			t.Fatalf("set index %d out of range for %#x", s, uint64(pa))
		}
		if s != c.SetIndex(pa) {
			t.Fatal("SetIndex not deterministic")
		}
		// All bytes of a line share a set.
		if c.SetIndex(pa.LineAddr()) != s {
			t.Fatalf("line-address set differs for %#x", uint64(pa))
		}
	}
}

func TestCountersAndReset(t *testing.T) {
	c := MustNew(tinyConfig(), nil)
	pa := arch.PA(0)
	c.Access(pa)
	c.Access(pa)
	h, m, _ := c.Totals()
	if h != 1 || m != 1 {
		t.Errorf("totals = (%d,%d), want (1,1)", h, m)
	}
	set := c.SetIndex(pa)
	sc := c.SetCounters()
	if sc[set].Hits != 1 || sc[set].Misses != 1 {
		t.Errorf("set counters = %+v", sc[set])
	}
	c.ResetStats()
	h, m, _ = c.Totals()
	if h != 0 || m != 0 {
		t.Error("ResetStats did not clear totals")
	}
	// Contents survive a stats reset.
	if hit, _ := c.Access(pa); !hit {
		t.Error("ResetStats must not flush contents")
	}
}

func TestFlush(t *testing.T) {
	c := MustNew(tinyConfig(), nil)
	pa := arch.PA(0x2000)
	c.Access(pa)
	if !c.Contains(pa) {
		t.Fatal("line should be cached")
	}
	c.Flush()
	if c.Contains(pa) {
		t.Fatal("Flush left line resident")
	}
}

func TestOccupiedWays(t *testing.T) {
	c := MustNew(tinyConfig(), nil)
	addrs := sameSetAddrs(c, 3)
	for i, a := range addrs {
		c.Access(a)
		if got := c.OccupiedWays(c.SetIndex(a)); got != i+1 {
			t.Errorf("after %d fills, occupancy = %d", i+1, got)
		}
	}
}

func TestRandomReplacementEventuallyEvictsAnyLine(t *testing.T) {
	cfg := tinyConfig()
	cfg.Policy = RandomRepl
	c := MustNew(cfg, xrand.New(42))
	addrs := sameSetAddrs(c, cfg.Ways*4)
	// Fill the set, then hammer extra lines; the original victim
	// distribution should not be deterministic LRU.
	for _, a := range addrs[:cfg.Ways] {
		c.Access(a)
	}
	for _, a := range addrs[cfg.Ways:] {
		c.Access(a)
	}
	_, _, ev := c.Totals()
	if ev == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestContainsDoesNotPerturbLRU(t *testing.T) {
	c := MustNew(tinyConfig(), nil)
	addrs := sameSetAddrs(c, tinyConfig().Ways+1)
	for _, a := range addrs[:tinyConfig().Ways] {
		c.Access(a)
	}
	// Peek at the oldest line many times; it must still be the victim.
	for i := 0; i < 10; i++ {
		c.Contains(addrs[0])
	}
	c.Access(addrs[tinyConfig().Ways])
	if c.Contains(addrs[0]) {
		t.Error("Contains refreshed LRU state")
	}
}

// Property: after accessing any sequence, a set never holds more than
// Ways lines and re-accessing the most recent line always hits.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed uint16, steps uint8) bool {
		rng := xrand.New(uint64(seed))
		c := MustNew(tinyConfig(), nil)
		n := int(steps)%200 + 1
		var last arch.PA
		for i := 0; i < n; i++ {
			pa := arch.PA(rng.Intn(1 << 16)).LineAddr()
			c.Access(pa)
			last = pa
		}
		for s := 0; s < tinyConfig().Sets; s++ {
			if c.OccupiedWays(s) > tinyConfig().Ways {
				return false
			}
		}
		hit, _ := c.Access(last)
		return hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses equals total accesses.
func TestCounterConservationProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := xrand.New(uint64(seed))
		c := MustNew(tinyConfig(), nil)
		n := rng.Intn(500) + 1
		for i := 0; i < n; i++ {
			c.Access(arch.PA(rng.Intn(1 << 15)))
		}
		h, m, _ := c.Totals()
		return int(h+m) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFromProfileGeometries is the table-driven non-P100 coverage:
// each named profile's cache must validate, report the profile's
// capacity, and behave set-associatively at the profile's own
// associativity (eviction exactly at `ways` conflicting fills, not at
// the P100's 16).
func TestFromProfileGeometries(t *testing.T) {
	for _, prof := range arch.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			cfg := FromProfile(prof)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			if cfg.SizeBytes() != prof.L2SizeBytes() {
				t.Errorf("size %d, want %d", cfg.SizeBytes(), prof.L2SizeBytes())
			}
			c := MustNew(cfg, nil)
			// `ways` distinct same-set lines all fit...
			addrs := sameSetAddrs(c, cfg.Ways+1)
			for _, a := range addrs[:cfg.Ways] {
				c.Access(a)
			}
			for _, a := range addrs[:cfg.Ways] {
				if !c.Contains(a) {
					t.Fatalf("line evicted before associativity was reached")
				}
			}
			// ...and the (ways+1)-th evicts exactly the LRU one.
			c.Access(addrs[cfg.Ways])
			if c.Contains(addrs[0]) {
				t.Error("LRU line survived over-fill")
			}
			for _, a := range addrs[1 : cfg.Ways+1] {
				if !c.Contains(a) {
					t.Error("non-LRU line evicted")
				}
			}
		})
	}
}

// TestPageConsecutiveIndexingPerProfile checks the property all
// discovery rests on — within one page, lines index consecutive sets —
// for every profile geometry (the paper observes it on the P100; the
// profiles model it as common to the generations).
func TestPageConsecutiveIndexingPerProfile(t *testing.T) {
	for _, prof := range arch.Profiles() {
		c := MustNew(FromProfile(prof), nil)
		base := arch.PA(11 * arch.PageSize)
		first := c.SetIndex(base)
		lpp := c.Config().LinesPerPage()
		for i := 1; i < lpp; i++ {
			got := c.SetIndex(base + arch.PA(i*c.Config().LineSize))
			if got != (first+i)%c.Config().Sets {
				t.Fatalf("%s: line %d of page maps to set %d, want %d",
					prof.Name, i, got, (first+i)%c.Config().Sets)
			}
		}
	}
}

// TestTinySixtyFourSetProfile pins behaviour of a deliberately tiny
// 64-set geometry (subpage cache: fewer sets than lines per page, so
// the hash has a single region and every page conflicts with every
// other).
func TestTinySixtyFourSetProfile(t *testing.T) {
	cfg := Config{Sets: 64, Ways: 4, LineSize: 128, PageSize: 8192, Policy: LRU, HashIndex: true}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	c := MustNew(cfg, nil)
	// With Sets == LinesPerPage the page wraps exactly once and there
	// is a single hash region: page base addresses all land in set 0's
	// region regardless of frame.
	if got := cfg.LinesPerPage(); got != 64 {
		t.Fatalf("lines per page = %d, want 64", got)
	}
	for page := 0; page < 16; page++ {
		if got := c.SetIndex(arch.PA(page * 8192)); got != c.SetIndex(0) {
			t.Errorf("page %d base indexes set %d; single-region cache should be uniform", page, got)
		}
	}
}

// TestCheckpointRestore: a cache restored from a checkpoint answers an
// access trace exactly as the checkpointed cache does, with the same
// per-set and total counters, whatever the restored cache held before.
// The checkpoint keeps only the sets with a valid line or a counter:
// a stats reset leaves sets with lines and no counters, a partition
// flush sets with counters and no lines.
func TestCheckpointRestore(t *testing.T) {
	dirty := []struct {
		name    string
		prepare func(c *Cache, rng *xrand.Source)
	}{
		{"lines-without-counters", func(c *Cache, rng *xrand.Source) {
			for i := 0; i < 40; i++ {
				c.Access(arch.PA(rng.Intn(1 << 14)))
			}
			c.ResetStats()
		}},
		{"counters-without-lines", func(c *Cache, rng *xrand.Source) {
			for i := 0; i < 40; i++ {
				c.Access(arch.PA(rng.Intn(1 << 14)))
			}
			if err := c.SetPartition(c.Config().Ways / 2); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				c.Access(arch.PA(rng.Intn(1 << 14)))
			}
		}},
	}
	for _, policy := range []ReplacementPolicy{LRU, RandomRepl} {
		for _, d := range dirty {
			t.Run(policy.String()+"/"+d.name, func(t *testing.T) {
				cfg := tinyConfig()
				cfg.Policy = policy
				rng := xrand.New(3)
				src := MustNew(cfg, xrand.New(1))
				d.prepare(src, rng)
				cp := src.Checkpoint()
				if len(cp.sets) >= cfg.Sets {
					t.Fatalf("checkpoint keeps %d of %d sets", len(cp.sets), cfg.Sets)
				}

				dst := MustNew(cfg, xrand.New(2))
				for i := 0; i < 500; i++ {
					dst.Access(arch.PA(rng.Intn(1 << 16)))
				}
				dst.Restore(cp)
				gotCounters, wantCounters := dst.SetCounters(), src.SetCounters()
				for i := range wantCounters {
					if gotCounters[i] != wantCounters[i] {
						t.Fatalf("restored set %d counters %+v, want %+v", i, gotCounters[i], wantCounters[i])
					}
				}
				for i := 0; i < 400; i++ {
					pa := arch.PA(rng.Intn(1 << 14))
					wantHit, wantSet := src.Access(pa)
					if hit, set := dst.Access(pa); hit != wantHit || set != wantSet {
						t.Fatalf("access %d: restored cache (%v, set %d), original (%v, set %d)", i, hit, set, wantHit, wantSet)
					}
				}
				gh, gm, ge := dst.Totals()
				wh, wm, we := src.Totals()
				if gh != wh || gm != wm || ge != we {
					t.Fatalf("totals (%d, %d, %d) after the trace, want (%d, %d, %d)", gh, gm, ge, wh, wm, we)
				}
			})
		}
	}
}
