package l2cache

import (
	"fmt"
	"testing"

	"spybox/internal/arch"
)

// BenchmarkCacheAccess times one Access at the P100's 2048 sets with 16
// and 32 ways, unhashed so that line k indexes set k mod Sets:
//
//   - hit cycles through a full cache's lines in order, so every access
//     hits its set's least recently used way, the Prime+Probe pattern;
//   - cold-fill misses into sets that are not yet full, flushing the
//     cache each time it fills;
//   - evict cycles through twice the capacity, so every access misses
//     in a full set and evicts.
//
// It reports ns/access and must not allocate.
func BenchmarkCacheAccess(b *testing.B) {
	for _, ways := range []int{16, 32} {
		cfg := P100Config()
		cfg.Ways, cfg.HashIndex = ways, false
		lines := cfg.Sets * cfg.Ways
		for _, bc := range []struct {
			name   string
			span   int  // distinct lines cycled through
			warm   bool // touch every line once before timing
			flush  bool // flush after every span accesses
			wantHt bool
		}{
			{"hit", lines, true, false, true},
			{"cold-fill", lines, false, true, false},
			{"evict", 2 * lines, true, false, false},
		} {
			b.Run(fmt.Sprintf("%s/ways%d", bc.name, ways), func(b *testing.B) {
				c := MustNew(cfg, nil)
				pa := func(i int) arch.PA { return arch.PA(i % bc.span * cfg.LineSize) }
				if bc.warm {
					for i := 0; i < bc.span; i++ {
						c.Access(pa(i))
					}
				}
				c.ResetStats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if bc.flush && i%bc.span == 0 {
						c.Flush()
					}
					c.Access(pa(i))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
				b.StopTimer()
				hits, misses, _ := c.Totals()
				if bc.wantHt && misses != 0 || !bc.wantHt && hits != 0 {
					b.Fatalf("%d hits, %d misses: the access pattern is not %s", hits, misses, bc.name)
				}
			})
		}
	}
}
