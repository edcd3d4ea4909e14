// Eviction-set discovery: the Sec. III-B reverse engineering. The
// attacker allocates a buffer on the target GPU and, using timing
// alone, partitions its pages into conflict groups, builds one
// eviction set per (group, page-offset) pair, eliminates aliases, and
// derives the Table I cache geometry.
package core

import (
	"fmt"
	"sort"

	"spybox/internal/arch"
	"spybox/internal/cudart"
	"spybox/internal/sim"
)

// EvictionSet is a collection of attacker virtual addresses whose
// lines hash to one physical cache set. Group and Offset are the
// attacker-local name of the set: which conflict group of pages it
// came from and at which line offset within the page. The attacker
// never learns the physical set index.
type EvictionSet struct {
	Lines  []arch.VA
	Group  int
	Offset int
}

// Attacker is one malicious process together with its probe buffer on
// the target GPU and the timing thresholds from the offline
// characterization.
type Attacker struct {
	Proc   *cudart.Process
	Target arch.DeviceID
	Buf    arch.VA
	Pages  int
	Thr    Thresholds

	// ChunkSize is the span of consecutive cache indexing: the cache's
	// page-hash granularity. On the P100 it equals the 64 KB VM page;
	// the attacker learns it from the consecutive-indexing observation
	// (Sec. III-B). All discovery operates chunk-wise.
	ChunkSize     int
	LinesPerChunk int
	// LineSize is the target cache's line size in bytes (profile-
	// dependent; 128 B on every machine the paper touches).
	LineSize int

	m *sim.Machine
}

// Machine returns the box the attacker runs on.
func (a *Attacker) Machine() *sim.Machine { return a.m }

// Ways returns the associativity of the target GPU's L2 — the ground
// truth the machine profile fixes. Attack phases that come after
// reverse engineering (the paper's "one time, offline" step) read it
// from here instead of a package constant so the same code ports
// across architecture profiles.
func (a *Attacker) Ways() int {
	return a.m.Device(a.Target).L2().Config().Ways
}

// NewAttacker creates a process on dev, allocates pages*64KB on
// target (enabling peer access when target is remote), and returns
// the ready attacker. More pages make conflict groups larger and the
// discovery more robust; 256 is a good default against the P100
// geometry (each of the 4 hash regions collects ~64 pages).
func NewAttacker(m *sim.Machine, dev, target arch.DeviceID, pages int, thr Thresholds, seed uint64) (*Attacker, error) {
	if pages < 2 {
		return nil, fmt.Errorf("core: need at least 2 pages, got %d", pages)
	}
	proc, err := cudart.NewProcess(m, dev, seed)
	if err != nil {
		return nil, err
	}
	if dev != target {
		if err := proc.EnablePeerAccess(target); err != nil {
			return nil, err
		}
	}
	cacheCfg := m.Device(target).L2().Config()
	buf, err := proc.MallocOnDevice(target, uint64(pages)*uint64(cacheCfg.PageSize))
	if err != nil {
		return nil, err
	}
	return &Attacker{
		Proc:          proc,
		Target:        target,
		Buf:           buf,
		Pages:         pages,
		Thr:           thr,
		ChunkSize:     cacheCfg.PageSize,
		LinesPerChunk: cacheCfg.LinesPerPage(),
		LineSize:      cacheCfg.LineSize,
		m:             m,
	}, nil
}

// Remote reports whether the attacker reaches its buffer over NVLink.
func (a *Attacker) Remote() bool { return a.Proc.Device() != a.Target }

// LineVA returns the address of line lineOff within page (chunk).
func (a *Attacker) LineVA(page, lineOff int) arch.VA {
	return a.Buf + arch.VA(page*a.ChunkSize+lineOff*a.LineSize)
}

// isMiss classifies a measured latency for this attacker's locality.
func (a *Attacker) isMiss(lat arch.Cycles) bool { return a.Thr.IsMiss(lat, a.Remote()) }

// trialProbe runs one conflict trial: load the target line (caching
// it), access every chase line as a warp probe, then time the target
// again. It reports whether the target was evicted. This is the
// batched production form of Algorithm 1's inner loop; see
// Algorithm1Chase for the faithful sequential pointer-chase version.
func (a *Attacker) trialProbe(target arch.VA, chase []arch.VA) (evicted bool, err error) {
	var lat arch.Cycles
	err = a.Proc.Launch("evset-trial", 0, func(k *cudart.Kernel) {
		k.TouchCG(target)
		if len(chase) > 0 {
			k.ProbeSet(nil, chase)
		}
		lat = k.TouchCG(target)
		k.SharedWrite()
	})
	if err != nil {
		return false, err
	}
	a.m.Run()
	return a.isMiss(lat), nil
}

// trialVotes runs trialProbe an odd number of times and majority-votes
// to shrug off timing jitter near the threshold.
func (a *Attacker) trialVotes(target arch.VA, chase []arch.VA, votes int) (bool, error) {
	miss := 0
	for v := 0; v < votes; v++ {
		ev, err := a.trialProbe(target, chase)
		if err != nil {
			return false, err
		}
		if ev {
			miss++
		}
	}
	return miss*2 > votes, nil
}

// Algorithm1Chase is the faithful Sec. III-B Algorithm 1 kernel: a
// data-dependent pointer chase. The chain is written into the buffer
// itself, the target is timed before and after traversing
// numOfElements links, and both times are buffered in shared memory
// exactly as in the paper's listing. It returns the two target
// latencies.
func (a *Attacker) Algorithm1Chase(target arch.VA, chainOffsets []uint64, numOfElements int) (first, second arch.Cycles, err error) {
	if numOfElements > len(chainOffsets) {
		numOfElements = len(chainOffsets)
	}
	// Host-side chain setup (device-side in the paper; identical cache
	// effect here because the chase itself reloads every line).
	for i := 0; i < len(chainOffsets); i++ {
		next := chainOffsets[(i+1)%len(chainOffsets)]
		a.Proc.WriteU64(a.Buf+arch.VA(chainOffsets[i]), next)
	}
	err = a.Proc.Launch("algorithm1", 0, func(k *cudart.Kernel) {
		_, lat := k.LdCG(target) // line 2-5: timed target access
		k.SharedWrite()          // line 7: sharedTimeBuff[0]
		first = lat
		idx := chainOffsets[0]
		for i := 0; i < numOfElements; i++ { // line 9-14: pointer chase
			v, _ := k.LdCG(a.Buf + arch.VA(idx))
			k.Busy(1) // line 12: dummy += nxtIdx
			idx = v
		}
		_, lat = k.LdCG(target) // line 16-19: timed re-access
		k.SharedWrite()         // line 21: sharedTimeBuff[1]
		second = lat
	})
	if err != nil {
		return 0, 0, err
	}
	a.m.Run()
	return first, second, nil
}

// PageGroups is the result of conflict discovery: pages of the
// attacker's buffer partitioned by which hash region their lines land
// in. Pages in one group conflict pairwise at every line offset.
type PageGroups struct {
	Groups [][]int // page indices, each group sorted ascending
}

// GroupOf returns the index of the group containing page, or -1.
func (g *PageGroups) GroupOf(page int) int {
	for gi, grp := range g.Groups {
		for _, p := range grp {
			if p == page {
				return gi
			}
		}
	}
	return -1
}

// DiscoverPageGroups partitions the buffer's pages into conflict
// groups using timing only. It exploits the page-consecutive indexing
// the paper observes: it suffices to classify pages by their offset-0
// lines, because two pages either conflict at every offset or at none.
//
// For each still-unclassified target page the search runs in two
// phases. Phase A is Algorithm 1's remove-and-repeat: chase through
// the offset-0 lines of all unclassified pages; while the target gets
// evicted, binary-search the shortest evicting prefix — its last
// element is a conflicting page — remove it and repeat. Phase A ends
// with (ways-1) conflicting pages still hiding in the chase, so Phase
// B tests every remaining page p individually by chasing (ways-1)
// known group members plus p.
func (a *Attacker) DiscoverPageGroups(ways int) (*PageGroups, error) {
	if ways < 2 {
		return nil, fmt.Errorf("core: implausible associativity %d", ways)
	}
	unclassified := make([]int, a.Pages)
	for i := range unclassified {
		unclassified[i] = i
	}
	var groups [][]int

	for len(unclassified) > 0 {
		targetPage := unclassified[0]
		rest := append([]int(nil), unclassified[1:]...)
		target := a.LineVA(targetPage, 0)
		group := []int{targetPage}

		// Phase A: remove-and-repeat over the full chase.
		chase := append([]int(nil), rest...)
		for {
			full := a.pagesToVAs(chase, 0)
			evicted, err := a.trialVotes(target, full, 3)
			if err != nil {
				return nil, err
			}
			if !evicted {
				break
			}
			// Binary search the minimal evicting prefix length.
			lo, hi := 1, len(chase)
			for lo < hi {
				mid := (lo + hi) / 2
				ev, err := a.trialVotes(target, a.pagesToVAs(chase[:mid], 0), 3)
				if err != nil {
					return nil, err
				}
				if ev {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			conflicter := chase[lo-1]
			group = append(group, conflicter)
			chase = append(chase[:lo-1], chase[lo:]...)
		}

		// Phase B: with >= ways-1 known members we can test the rest
		// individually. If phase A found fewer (tiny buffers), the
		// leftover pages stay unclassified for a later target.
		if len(group) >= ways {
			helpers := a.pagesToVAs(group[1:ways], 0)
			for _, p := range chase {
				probe := append(append([]arch.VA(nil), helpers...), a.LineVA(p, 0))
				evicted, err := a.trialVotes(target, probe, 3)
				if err != nil {
					return nil, err
				}
				if evicted {
					group = append(group, p)
				}
			}
		}

		sort.Ints(group)
		groups = append(groups, group)
		unclassified = subtract(unclassified, group)
	}

	// Consolidation pass: when a conflict group holds just under
	// 2*ways-1 pages, phase A under-collects and the remainder
	// fragments into undersized groups (in the worst case singletons).
	// Absorb stragglers back:
	//
	//   - a group with >= ways members tests a candidate directly
	//     (target = member 0, chase = members 1..ways-1 plus the
	//     candidate: exactly `ways` distinct conflicting lines evict
	//     the target iff the candidate belongs);
	//   - a group with exactly ways-1 members bootstraps with a PAIR
	//     of candidates (target = candidate 1, chase = all ways-1
	//     members plus candidate 2: eviction requires both candidates
	//     to belong, which is exactly the fragmentation situation).
	//
	// Repeat until stable; once a ways-1 group absorbs one page it
	// graduates to the direct test.
	for changed := true; changed; {
		changed = false
		sort.Slice(groups, func(i, j int) bool { return len(groups[i]) > len(groups[j]) })
		for li := 0; li < len(groups); li++ {
			large := groups[li]
			// Collect the straggler pool: pages of smaller groups.
			var pool []int
			for ui := li + 1; ui < len(groups); ui++ {
				if len(groups[ui]) < ways {
					pool = append(pool, groups[ui]...)
				}
			}
			if len(pool) == 0 {
				continue
			}
			var absorbed []int
			if len(large) >= ways {
				target := a.LineVA(large[0], 0)
				helpers := a.pagesToVAs(large[1:ways], 0)
				for _, p := range pool {
					probe := append(append([]arch.VA(nil), helpers...), a.LineVA(p, 0))
					evicted, err := a.trialVotes(target, probe, 3)
					if err != nil {
						return nil, err
					}
					if evicted {
						absorbed = append(absorbed, p)
					}
				}
			} else {
				// m < ways members: bootstrap with k = ways - m pool
				// candidates. The target (another candidate) evicts
				// only if it AND every chosen candidate conflict with
				// the group, so a success absorbs them all soundly.
				// For k=1 all ordered pairs are tried (pools can
				// interleave stragglers of different regions); larger
				// k uses cyclic windows, which suffices because deep
				// fragmentation pools are region-pure in practice.
				k := ways - len(large)
				members := a.pagesToVAs(large, 0)
				tryBoot := func(target int, extras []int) (bool, error) {
					probe := append(append([]arch.VA(nil), members...), a.pagesToVAs(extras, 0)...)
					return a.trialVotes(a.LineVA(target, 0), probe, 3)
				}
				if k == 1 {
					for i := 0; i < len(pool) && len(absorbed) == 0; i++ {
						for j := 0; j < len(pool) && len(absorbed) == 0; j++ {
							if i == j {
								continue
							}
							ok, err := tryBoot(pool[i], pool[j:j+1])
							if err != nil {
								return nil, err
							}
							if ok {
								absorbed = append(absorbed, pool[i], pool[j])
							}
						}
					}
				} else if len(pool) > k {
					for r := 0; r < len(pool) && len(absorbed) == 0; r++ {
						rot := make([]int, 0, len(pool))
						rot = append(rot, pool[r:]...)
						rot = append(rot, pool[:r]...)
						ok, err := tryBoot(rot[0], rot[1:1+k])
						if err != nil {
							return nil, err
						}
						if ok {
							absorbed = append(absorbed, rot[:1+k]...)
						}
					}
				}
			}
			if len(absorbed) > 0 {
				changed = true
				groups[li] = append(groups[li], absorbed...)
				sort.Ints(groups[li])
				drop := make(map[int]bool, len(absorbed))
				for _, p := range absorbed {
					drop[p] = true
				}
				var rebuilt [][]int
				for gi, g := range groups {
					if gi == li {
						rebuilt = append(rebuilt, g)
						continue
					}
					var kept []int
					for _, p := range g {
						if !drop[p] {
							kept = append(kept, p)
						}
					}
					if len(kept) > 0 {
						rebuilt = append(rebuilt, kept)
					}
				}
				groups = rebuilt
				break // restart the scan with updated groups
			}
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return &PageGroups{Groups: groups}, nil
}

// pagesToVAs maps page indices to their line addresses at lineOff.
func (a *Attacker) pagesToVAs(pages []int, lineOff int) []arch.VA {
	out := make([]arch.VA, len(pages))
	for i, p := range pages {
		out[i] = a.LineVA(p, lineOff)
	}
	return out
}

// subtract returns xs without any element of ys, preserving order.
func subtract(xs, ys []int) []int {
	drop := make(map[int]bool, len(ys))
	for _, y := range ys {
		drop[y] = true
	}
	out := xs[:0]
	for _, x := range xs {
		if !drop[x] {
			out = append(out, x)
		}
	}
	return out
}

// EvictionSetFor builds the eviction set for (group, lineOff): lines
// at that offset in the first `ways` pages of the group.
func (a *Attacker) EvictionSetFor(groups *PageGroups, group, lineOff, ways int) (EvictionSet, error) {
	if group < 0 || group >= len(groups.Groups) {
		return EvictionSet{}, fmt.Errorf("core: no conflict group %d", group)
	}
	g := groups.Groups[group]
	if len(g) < ways {
		return EvictionSet{}, fmt.Errorf("core: group %d has only %d pages, need %d", group, len(g), ways)
	}
	if lineOff < 0 || lineOff >= a.LinesPerChunk {
		return EvictionSet{}, fmt.Errorf("core: line offset %d outside page", lineOff)
	}
	return EvictionSet{
		Lines:  a.pagesToVAs(g[:ways], lineOff),
		Group:  group,
		Offset: lineOff,
	}, nil
}

// AllEvictionSets enumerates one eviction set per unique cache set the
// attacker can name: every (group, offset) pair for groups large
// enough. With a 256-page buffer against the P100 this yields all
// 2048 physical sets.
func (a *Attacker) AllEvictionSets(groups *PageGroups, ways int) []EvictionSet {
	var out []EvictionSet
	for gi, g := range groups.Groups {
		if len(g) < ways {
			continue
		}
		for off := 0; off < a.LinesPerChunk; off++ {
			es, err := a.EvictionSetFor(groups, gi, off, ways)
			if err == nil {
				out = append(out, es)
			}
		}
	}
	return out
}

// Aliased tests whether two discovered eviction sets map to the same
// physical cache set (the Fig. 6 problem). It probes the union and
// then re-probes s1: if the two sets alias, 2*ways lines thrash one
// set and the re-probe sees mostly misses; if they are distinct sets,
// both fit and the re-probe hits.
func (a *Attacker) Aliased(s1, s2 EvictionSet) (bool, error) {
	union := append(append([]arch.VA(nil), s1.Lines...), s2.Lines...)
	var lats []arch.Cycles
	err := a.Proc.Launch("alias-check", 0, func(k *cudart.Kernel) {
		lats, _ = k.ProbeSet(lats, union)
		lats, _ = k.ProbeSet(lats, union) // settle LRU state
		lats, _ = k.ProbeSet(lats, s1.Lines)
		k.SharedWrite()
	})
	if err != nil {
		return false, err
	}
	a.m.Run()
	misses := 0
	for _, l := range lats {
		if a.isMiss(l) {
			misses++
		}
	}
	return misses*2 > len(lats), nil
}

// DeduplicateSets drops any eviction set aliasing an earlier one,
// returning sets that cover distinct physical cache sets. The paper
// performs this test for every newly discovered set; with the
// page-group construction aliases only arise if two groups were
// wrongly split, so this doubles as a discovery validity check.
func (a *Attacker) DeduplicateSets(sets []EvictionSet) ([]EvictionSet, error) {
	// Same group+offset pairs are unique by construction; aliases can
	// only occur across groups at equal offsets. Compare group
	// representatives instead of all pairs to keep this O(groups^2).
	type key struct{ group, off int }
	reps := make(map[int]EvictionSet) // group -> offset-0 set
	aliasedGroups := make(map[int]bool)
	var groupsSeen []int
	for _, s := range sets {
		if s.Offset != 0 {
			continue
		}
		if _, ok := reps[s.Group]; ok {
			continue
		}
		for _, prev := range groupsSeen {
			al, err := a.Aliased(reps[prev], s)
			if err != nil {
				return nil, err
			}
			if al && !aliasedGroups[prev] {
				aliasedGroups[s.Group] = true
				break
			}
		}
		reps[s.Group] = s
		if !aliasedGroups[s.Group] {
			groupsSeen = append(groupsSeen, s.Group)
		}
	}
	var out []EvictionSet
	seen := make(map[key]bool)
	for _, s := range sets {
		k := key{s.Group, s.Offset}
		if aliasedGroups[s.Group] || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	return out, nil
}
