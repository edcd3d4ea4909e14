// Cache geometry inference: the experiments behind Table I and the
// Fig. 5 eviction-set validation, all conducted from user level with
// timing only.
package core

import (
	"fmt"

	"spybox/internal/arch"
	"spybox/internal/cudart"
)

// Geometry is the attacker's reconstruction of Table I.
type Geometry struct {
	LineSize   int
	Ways       int
	Sets       int
	CacheBytes int
	Policy     string // "LRU" or "randomized"
}

// String renders the geometry like the paper's Table I.
func (g Geometry) String() string {
	return fmt.Sprintf("L2: %d B total, %d sets x %d ways x %d B lines, %s replacement",
		g.CacheBytes, g.Sets, g.Ways, g.LineSize, g.Policy)
}

// InferLineSize determines the cache line size by touching the first
// byte of a fresh page and then timing an access at growing deltas: a
// hit means the delta still falls in the loaded line. Each delta uses
// a fresh, never-touched page so no eviction primitive is needed.
// Pages are consumed starting at firstFreshPage.
func (a *Attacker) InferLineSize(firstFreshPage int) (int, error) {
	delta := 16
	page := firstFreshPage
	for delta <= a.ChunkSize/2 {
		if page >= a.Pages {
			return 0, fmt.Errorf("core: ran out of fresh pages at delta %d", delta)
		}
		base := a.LineVA(page, 0)
		var lat arch.Cycles
		d := delta
		err := a.Proc.Launch("linesize", 0, func(k *cudart.Kernel) {
			k.TouchCG(base)
			lat = k.TouchCG(base + arch.VA(d))
			k.SharedWrite()
		})
		if err != nil {
			return 0, err
		}
		a.m.Run()
		if a.isMiss(lat) {
			return delta, nil // first delta landing in a new line
		}
		delta *= 2
		page++
	}
	return 0, fmt.Errorf("core: no line boundary found up to %d", a.ChunkSize/2)
}

// InferAssociativity finds the number of ways: chase k conflicting
// lines after loading a target and find the smallest k that evicts
// it. conflictPages must all belong to one conflict group; at least
// maxWays+1 pages are needed.
func (a *Attacker) InferAssociativity(conflictPages []int, maxWays int) (int, error) {
	if len(conflictPages) < maxWays+1 {
		return 0, fmt.Errorf("core: need %d conflicting pages, have %d", maxWays+1, len(conflictPages))
	}
	target := a.LineVA(conflictPages[0], 0)
	for k := 1; k <= maxWays; k++ {
		chase := a.pagesToVAs(conflictPages[1:1+k], 0)
		evicted, err := a.trialVotes(target, chase, 5)
		if err != nil {
			return 0, err
		}
		if evicted {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: no eviction up to %d ways", maxWays)
}

// InferReplacementPolicy distinguishes deterministic LRU from
// randomized replacement. It fills a set with `ways` lines in order,
// accesses one extra conflicting line, and checks which resident line
// died: under LRU it is always the oldest; under randomization the
// victim varies across trials.
func (a *Attacker) InferReplacementPolicy(conflictPages []int, ways, trials int) (string, error) {
	if len(conflictPages) < ways+2 {
		return "", fmt.Errorf("core: need %d conflicting pages, have %d", ways+2, len(conflictPages))
	}
	oldestEvicted := 0
	for tr := 0; tr < trials; tr++ {
		fill := a.pagesToVAs(conflictPages[:ways], 0)
		extra := a.LineVA(conflictPages[ways+tr%2], 0)
		var lats []arch.Cycles
		err := a.Proc.Launch("replacement", 0, func(k *cudart.Kernel) {
			for _, va := range fill { // ordered fill: element 0 is LRU
				k.TouchCG(va)
			}
			k.TouchCG(extra)
			// Probe in REVERSE order so testing younger lines first
			// cannot cascade-evict the older ones we care about.
			rev := make([]arch.VA, len(fill))
			for i := range fill {
				rev[i] = fill[len(fill)-1-i]
			}
			lats, _ = k.ProbeSet(nil, rev)
			k.SharedWrite()
		})
		if err != nil {
			return "", err
		}
		a.m.Run()
		// lats is reversed: last element corresponds to fill[0].
		missIdx := -1
		for i := len(lats) - 1; i >= 0; i-- {
			if a.isMiss(lats[i]) {
				missIdx = len(lats) - 1 - i // index in fill order
				break
			}
		}
		if missIdx == 0 {
			oldestEvicted++
		}
	}
	if oldestEvicted == trials {
		return "LRU", nil
	}
	return "randomized", nil
}

// InferGeometry runs the complete Table I reconstruction. groups must
// come from DiscoverPageGroups; freshPages indexes the first pages
// never touched by discovery (InferLineSize needs cold lines, so
// allocate a few extra pages beyond what discovery probed, or accept
// the default line size from a prior run).
func (a *Attacker) InferGeometry(groups *PageGroups, maxWays int, freshAttacker *Attacker) (Geometry, error) {
	var g Geometry
	// Use the largest conflict group for the associativity and policy
	// experiments.
	best := 0
	for i, grp := range groups.Groups {
		if len(grp) > len(groups.Groups[best]) {
			best = i
		}
	}
	ways, err := a.InferAssociativity(groups.Groups[best], maxWays)
	if err != nil {
		return g, err
	}
	policy, err := a.InferReplacementPolicy(groups.Groups[best], ways, 7)
	if err != nil {
		return g, err
	}
	lineSize, err := freshAttacker.InferLineSize(0)
	if err != nil {
		return g, err
	}
	// Number of sets: each conflict group holds LinesPerChunk distinct
	// consecutive sets (page-consecutive indexing, which discovery
	// already leaned on), so sets = groups x lines-per-page.
	linesPerPage := a.ChunkSize / lineSize
	g = Geometry{
		LineSize: lineSize,
		Ways:     ways,
		Sets:     len(groups.Groups) * linesPerPage,
		Policy:   policy,
	}
	g.CacheBytes = g.Sets * g.Ways * g.LineSize
	return g, nil
}

// ValidationPoint is one x/y pair of the Fig. 5 sweep.
type ValidationPoint struct {
	LinesAccessed int
	TargetLat     arch.Cycles // target re-access latency
	Evicted       bool
}

// ValidateEvictionSet reproduces Fig. 5: for k = 1..maxLines it loads
// a target line, chases k lines of the conflict set, and times the
// target again. The latency staircases up exactly when k reaches the
// associativity — and stays up for every larger k — confirming the
// set is real and replacement is deterministic LRU.
func (a *Attacker) ValidateEvictionSet(conflictPages []int, maxLines int) ([]ValidationPoint, error) {
	if len(conflictPages) < maxLines+1 {
		return nil, fmt.Errorf("core: need %d conflict pages, have %d", maxLines+1, len(conflictPages))
	}
	target := a.LineVA(conflictPages[0], 0)
	points := make([]ValidationPoint, 0, maxLines)
	for k := 1; k <= maxLines; k++ {
		chase := a.pagesToVAs(conflictPages[1:1+k], 0)
		var lat arch.Cycles
		err := a.Proc.Launch("fig5", 0, func(kr *cudart.Kernel) {
			kr.TouchCG(target)
			kr.ProbeSet(nil, chase)
			lat = kr.TouchCG(target)
			kr.SharedWrite()
		})
		if err != nil {
			return nil, err
		}
		a.m.Run()
		points = append(points, ValidationPoint{
			LinesAccessed: k,
			TargetLat:     lat,
			Evicted:       a.isMiss(lat),
		})
	}
	return points, nil
}
