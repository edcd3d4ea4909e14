// Multi-GPU covert channel: the scaling direction the paper names but
// does not explore ("Using additional parallelism (e.g., involving
// additional GPUs) can further improve bandwidth"). Several spy
// processes on different GPUs — each NVLink-connected to the target —
// receive disjoint subsets of the bit stream through the target GPU's
// L2 simultaneously.
package core

import "fmt"

// Branch is one spy endpoint of a multi-GPU channel: a spy process
// plus the set pairs aligned between it and the trojan.
type Branch struct {
	Spy   *Attacker
	Pairs []AlignedPair
}

// MultiChannel fans a transmission out over multiple spy GPUs.
type MultiChannel struct {
	Trojan   *Attacker
	Branches []Branch
	Cfg      CovertConfig
}

// NewMultiChannel validates and assembles a multi-GPU channel. Every
// branch's spy must target the trojan's GPU.
func NewMultiChannel(trojan *Attacker, branches []Branch, cfg CovertConfig) (*MultiChannel, error) {
	if len(branches) == 0 {
		return nil, fmt.Errorf("core: multichannel needs at least one branch")
	}
	total := 0
	for i, b := range branches {
		if b.Spy == nil || len(b.Pairs) == 0 {
			return nil, fmt.Errorf("core: branch %d is empty", i)
		}
		if b.Spy.Target != trojan.Target {
			return nil, fmt.Errorf("core: branch %d spies on %v, trojan uses %v",
				i, b.Spy.Target, trojan.Target)
		}
		total += len(b.Pairs)
	}
	if total == 0 {
		return nil, fmt.Errorf("core: no aligned pairs")
	}
	if cfg.BitPeriod == 0 {
		cfg = DefaultCovertConfig()
	}
	return &MultiChannel{Trojan: trojan, Branches: branches, Cfg: cfg}, nil
}

// TotalSets returns the number of parallel cache-set channels.
func (mc *MultiChannel) TotalSets() int {
	n := 0
	for _, b := range mc.Branches {
		n += len(b.Pairs)
	}
	return n
}

// Transmit sends msg striped round-robin across every set pair of
// every branch, with the Channel protocol; each branch's spy
// classifies with its own thresholds.
func (mc *MultiChannel) Transmit(msg []byte) (*Transmission, error) {
	var lanes []lane
	for _, b := range mc.Branches {
		for _, p := range b.Pairs {
			lanes = append(lanes, lane{spy: b.Spy, pair: p})
		}
	}
	return transmit(mc.Trojan, lanes, mc.Cfg, msg, nil)
}
