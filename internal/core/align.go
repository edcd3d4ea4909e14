// Cross-process eviction-set alignment (Sec. IV-A, Algorithm 2,
// Fig. 7). After discovery, each process holds eviction sets it can
// only name locally; to communicate, the trojan and spy must find
// pairs of sets — one from each process — that hash to the same
// physical cache set. The test is contention itself: the trojan
// hammers one of its sets while the spy times probes of a candidate;
// an elevated average access time means the two sets collide.
package core

import (
	"fmt"

	"spybox/internal/arch"
	"spybox/internal/cudart"
	"spybox/internal/stats"
)

// AlignedPair couples a trojan eviction set with the spy eviction set
// that maps to the same physical cache set.
type AlignedPair struct {
	TE EvictionSet // trojan's set (local to the target GPU)
	SE EvictionSet // spy's set (probed remotely over NVLink)
}

// AlignConfig sizes the Algorithm 2 contention test. The paper uses
// 400000 trojan loops and 150000 spy loops on silicon; the simulated
// machine needs far fewer probes for the contention to be visible,
// and the paper itself notes the loop counts can be reduced.
type AlignConfig struct {
	TrojanLoops int // probe passes the trojan hammers per test
	SpyLoops    int // probe passes the spy averages per test
}

// DefaultAlignConfig returns loop counts scaled for the simulator
// while preserving the paper's ~8:3 local:remote ratio.
func DefaultAlignConfig() AlignConfig {
	return AlignConfig{TrojanLoops: 320, SpyLoops: 120}
}

// AlignPair is Algorithm 2 verbatim for one (TE, SE) candidate pair:
// the trojan accesses TE in a pointer-chase loop for TrojanLoops
// iterations while the spy accumulates the average per-access time of
// SE over SpyLoops iterations. It returns the spy's average
// per-access time and whether that indicates a collision.
func AlignPair(trojan, spy *Attacker, te, se EvictionSet, cfg AlignConfig) (avg float64, mapped bool, err error) {
	if len(te.Lines) == 0 || len(se.Lines) == 0 {
		return 0, false, fmt.Errorf("core: empty eviction set")
	}
	if cfg.TrojanLoops <= 0 || cfg.SpyLoops <= 0 {
		cfg = DefaultAlignConfig()
	}
	if err := trojan.Proc.Launch("align-trojan", 0, func(k *cudart.Kernel) {
		var lats []arch.Cycles
		for i := 0; i < cfg.TrojanLoops; i++ { // Alg. 2 outer loop
			lats, _ = k.ProbeSet(lats, te.Lines) // lines 5-13: chase the set
			k.Busy(4)                            // line 15: dummy operation
		}
	}); err != nil {
		return 0, false, err
	}
	var timer2 float64 // Alg. 2's accumulated per-access average
	if err := spy.Proc.Launch("align-spy", 0, func(k *cudart.Kernel) {
		var lats []arch.Cycles
		for i := 0; i < cfg.SpyLoops; i++ {
			lats, _ = k.ProbeSet(lats, se.Lines) // lines 5-13
			var timer1 arch.Cycles
			for _, l := range lats {
				timer1 += l // line 11: accumulate access cycles
			}
			timer2 += float64(timer1) / float64(len(lats)) // line 14
			k.Busy(4)
		}
	}); err != nil {
		return 0, false, err
	}
	trojan.m.Run()
	avg = timer2 / float64(cfg.SpyLoops) // line 17
	return avg, avg > spy.Thr.Boundary(spy.Remote()), nil
}

// AlignSweep finds, in a single concurrent run, which of the spy's
// candidate sets collides with the trojan set te: the trojan hammers
// te continuously while the spy visits every candidate a few times
// and averages per-access latency. The candidate with the highest
// average — provided it crosses the spy's miss boundary — is the
// match. This is the "reduced probing values" optimization the paper
// mentions; the decision criterion is identical to AlignPair's.
func AlignSweep(trojan, spy *Attacker, te EvictionSet, candidates []EvictionSet, probesPer int) (matchIdx int, avgs []float64, err error) {
	if probesPer <= 0 {
		probesPer = 3
	}
	stop := false
	if err := trojan.Proc.Launch("sweep-trojan", 0, func(k *cudart.Kernel) {
		var lats []arch.Cycles
		for !stop {
			lats, _ = k.ProbeSet(lats, te.Lines)
			k.Busy(4)
		}
	}); err != nil {
		return -1, nil, err
	}
	avgs = make([]float64, len(candidates))
	if err := spy.Proc.Launch("sweep-spy", 0, func(k *cudart.Kernel) {
		defer func() { stop = true }()
		var lats []arch.Cycles
		for ci, cand := range candidates {
			lats, _ = k.ProbeSet(lats, cand.Lines) // warm the candidate (prime)
			var sum float64
			n := 0
			for p := 0; p < probesPer; p++ {
				lats, _ = k.ProbeSet(lats, cand.Lines)
				for _, l := range lats {
					sum += float64(l)
					n++
				}
			}
			avgs[ci] = sum / float64(n)
			k.SharedWrite()
		}
	}); err != nil {
		return -1, nil, err
	}
	trojan.m.Run()
	best := stats.ArgMax(avgs)
	if best < 0 || avgs[best] <= spy.Thr.Boundary(spy.Remote()) {
		return -1, avgs, nil
	}
	return best, avgs, nil
}

// AlignChannels establishes numSets aligned pairs between trojan and
// spy. Trojan sets are drawn from one conflict group at consecutive
// page offsets; for each, the spy sweeps its candidate sets. An error
// is returned if any trojan set finds no spy counterpart (which, with
// full-cache coverage on the spy side, indicates a discovery failure).
func AlignChannels(trojan, spy *Attacker, trojanSets, spyCandidates []EvictionSet, numSets int) ([]AlignedPair, error) {
	if numSets > len(trojanSets) {
		return nil, fmt.Errorf("core: want %d channels, trojan has %d sets", numSets, len(trojanSets))
	}
	var pairs []AlignedPair
	used := make(map[int]bool)
	for i := 0; i < numSets; i++ {
		te := trojanSets[i]
		idx, _, err := AlignSweep(trojan, spy, te, spyCandidates, 3)
		if err != nil {
			return nil, err
		}
		if idx < 0 {
			return nil, fmt.Errorf("core: no spy set aligns with trojan set (group %d, offset %d)", te.Group, te.Offset)
		}
		if used[idx] {
			return nil, fmt.Errorf("core: spy set %d matched two trojan sets; aliasing in discovery", idx)
		}
		used[idx] = true
		pairs = append(pairs, AlignedPair{TE: te, SE: spyCandidates[idx]})
	}
	return pairs, nil
}
