// Multi-GPU covert channel: the scaling direction the paper names but
// does not explore ("Using additional parallelism (e.g., involving
// additional GPUs) can further improve bandwidth"). Several spy
// processes on different GPUs — each NVLink-connected to the target —
// receive disjoint subsets of the bit stream through the target GPU's
// L2 simultaneously.
package core

import (
	"fmt"

	"spybox/internal/arch"
	"spybox/internal/cudart"
)

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
// every branch. The decode logic matches Channel.Transmit; each
// branch's spy classifies with its own thresholds.
func (mc *MultiChannel) Transmit(msg []byte) (*Transmission, error) {
	bits := BytesToBits(msg)
	if len(bits) == 0 {
		return nil, fmt.Errorf("core: empty message")
	}
	type lane struct {
		spy  *Attacker
		pair AlignedPair
	}
	var lanes []lane
	for _, b := range mc.Branches {
		for _, p := range b.Pairs {
			lanes = append(lanes, lane{spy: b.Spy, pair: p})
		}
	}
	n := len(lanes)
	streams := splitRoundRobin(bits, n)
	T := mc.Cfg.BitPeriod
	samples := make([][]probeSample, n)

	for li, ln := range lanes {
		li, ln := li, ln
		stream := streams[li]
		err := mc.Trojan.Proc.Launch(fmt.Sprintf("mtrojan-%d", li), 0, func(k *cudart.Kernel) {
			var lats []arch.Cycles
			for bi, b := range stream {
				epochEnd := arch.Cycles(bi+1) * T
				for k.Now() < epochEnd {
					if b == 1 {
						lats, _ = k.ProbeSet(lats, ln.pair.TE.Lines)
						k.Busy(2)
					} else {
						k.BusyHeavy(8)
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		boundary := ln.spy.Thr.Boundary(ln.spy.Remote())
		endTime := arch.Cycles(len(stream))*T + T/2
		err = ln.spy.Proc.Launch(fmt.Sprintf("mspy-%d", li), arch.MaxSharedMemPerBlock, func(k *cudart.Kernel) {
			lats, _ := k.ProbeSet(nil, ln.pair.SE.Lines)
			for k.Now() < endTime {
				lats, _ = k.ProbeSet(lats, ln.pair.SE.Lines)
				misses := 0
				var sum float64
				for _, l := range lats {
					if float64(l) > boundary {
						misses++
					}
					sum += float64(l)
				}
				k.SharedWrite()
				samples[li] = append(samples[li], probeSample{
					t: k.Now(), misses: misses, avgLat: sum / float64(len(lats)),
				})
			}
		})
		if err != nil {
			return nil, err
		}
	}
	mc.Trojan.m.Run()

	decoded := make([][]byte, n)
	var lastSample arch.Cycles
	guard := arch.Cycles(float64(T) * mc.Cfg.GuardFrac)
	for li := range lanes {
		stream := streams[li]
		decoded[li] = make([]byte, len(stream))
		for bi := range stream {
			lo, hi := arch.Cycles(bi)*T+guard, arch.Cycles(bi+1)*T
			ones, zeros := 0, 0
			for _, s := range samples[li] {
				if s.t < lo || s.t >= hi {
					continue
				}
				if s.misses*2 > len(lanes[li].pair.SE.Lines) {
					ones++
				} else {
					zeros++
				}
			}
			if ones > zeros {
				decoded[li][bi] = 1
			}
		}
		if k := len(samples[li]); k > 0 && samples[li][k-1].t > lastSample {
			lastSample = samples[li][k-1].t
		}
	}
	rx := mergeRoundRobin(decoded, len(bits))
	tx := &Transmission{
		SentBits: bits, ReceivedBits: rx, Duration: lastSample,
		ClockHz: mc.Trojan.m.Profile().Lat.ClockHz,
	}
	for i := range bits {
		if bits[i] != rx[i] {
			tx.BitErrors++
		}
	}
	for _, s := range samples[0] {
		tx.Trace = append(tx.Trace, TracePoint{T: s.t, AvgLat: s.avgLat})
	}
	return tx, nil
}
