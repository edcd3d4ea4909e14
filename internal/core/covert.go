// The cross-GPU covert channel (Sec. IV, Figs. 8-10). A trojan on GPU
// A and a spy on GPU B communicate through Prime+Probe contention on
// GPU A's L2: the spy keeps its aligned sets primed and probes them
// continuously; for each bit period the trojan either hammers its own
// aligned set ('1', evicting the spy's lines so the spy's probes miss)
// or spins on heavy arithmetic ('0', leaving the spy's lines resident
// so its probes hit). Multiple aligned set pairs carry bits in
// parallel, one thread block per set on each side.
package core

import (
	"fmt"

	"spybox/internal/arch"
	"spybox/internal/cudart"
)

// CovertConfig shapes a transmission.
type CovertConfig struct {
	// BitPeriod is the epoch length per bit in cycles. It must give
	// the spy a few probes per epoch; DefaultCovertConfig picks a
	// value matched to the simulator's probe costs.
	BitPeriod arch.Cycles
	// GuardFrac is the fraction of each epoch the decoder discards at
	// the boundary (transition smear).
	GuardFrac float64
}

// DefaultCovertConfig returns transmission parameters tuned the way
// the paper tunes its "controlling parameters": the spy fits ~3
// probes per bit period.
func DefaultCovertConfig() CovertConfig {
	return CovertConfig{BitPeriod: 6000, GuardFrac: 0.18}
}

// probeSample is one spy probe observation.
type probeSample struct {
	t      arch.Cycles // spy clock at probe completion
	misses int         // lines classified as misses
	avgLat float64     // mean per-line latency (the Fig. 10 y-axis)
}

// Transmission is the outcome of one covert message transfer.
type Transmission struct {
	SentBits     []byte // ground truth, one bit per element
	ReceivedBits []byte
	BitErrors    int
	// Duration is the spy-side time from first to last sample.
	Duration arch.Cycles
	// Trace is the set-0 spy probe series (time, mean latency),
	// which reproduces Fig. 10's waveform.
	Trace []TracePoint
	// ClockHz converts Duration to seconds; filled from the machine's
	// profile by Transmit (0 falls back to the P100 clock).
	ClockHz uint64
}

// TracePoint is one point of the Fig. 10 waveform.
type TracePoint struct {
	T      arch.Cycles
	AvgLat float64
}

// ErrorRate returns the fraction of bits received incorrectly.
func (tx *Transmission) ErrorRate() float64 {
	if len(tx.SentBits) == 0 {
		return 0
	}
	return float64(tx.BitErrors) / float64(len(tx.SentBits))
}

// BandwidthMBps returns the achieved bandwidth in megabytes per
// second of simulated time at the transmitting machine's clock.
func (tx *Transmission) BandwidthMBps() float64 {
	if tx.Duration == 0 {
		return 0
	}
	hz := tx.ClockHz
	if hz == 0 {
		hz = arch.ClockHz
	}
	bytes := float64(len(tx.SentBits)) / 8
	return bytes / 1e6 / (float64(tx.Duration) / float64(hz))
}

// Channel is an established covert channel: aligned set pairs plus
// the processes at both ends.
type Channel struct {
	Trojan *Attacker
	Spy    *Attacker
	Pairs  []AlignedPair
	Cfg    CovertConfig
}

// NewChannel wires up a channel over the given aligned pairs.
func NewChannel(trojan, spy *Attacker, pairs []AlignedPair, cfg CovertConfig) (*Channel, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("core: channel needs at least one aligned pair")
	}
	if cfg.BitPeriod == 0 {
		cfg = DefaultCovertConfig()
	}
	return &Channel{Trojan: trojan, Spy: spy, Pairs: pairs, Cfg: cfg}, nil
}

// BytesToBits expands a message into bits, MSB first.
func BytesToBits(msg []byte) []byte {
	bits := make([]byte, 0, len(msg)*8)
	for _, b := range msg {
		for i := 7; i >= 0; i-- {
			bits = append(bits, (b>>uint(i))&1)
		}
	}
	return bits
}

// BitsToBytes packs bits (MSB first) into bytes, truncating any
// partial trailing byte.
func BitsToBytes(bits []byte) []byte {
	out := make([]byte, 0, len(bits)/8)
	for i := 0; i+8 <= len(bits); i += 8 {
		var b byte
		for j := 0; j < 8; j++ {
			b = b<<1 | bits[i+j]&1
		}
		out = append(out, b)
	}
	return out
}

// splitRoundRobin deals bits across n streams: stream s gets bits
// s, s+n, s+2n, ...
func splitRoundRobin(bits []byte, n int) [][]byte {
	streams := make([][]byte, n)
	for i, b := range bits {
		streams[i%n] = append(streams[i%n], b)
	}
	return streams
}

// mergeRoundRobin inverts splitRoundRobin for total bits.
func mergeRoundRobin(streams [][]byte, total int) []byte {
	out := make([]byte, total)
	for s, st := range streams {
		for j, b := range st {
			idx := j*len(streams) + s
			if idx < total {
				out[idx] = b
			}
		}
	}
	return out
}

// Transmit sends msg across the channel and returns the decoded
// result with ground truth for error accounting. One trojan thread
// block and one spy thread block run per aligned pair; the bit stream
// is dealt round-robin across pairs.
func (c *Channel) Transmit(msg []byte) (*Transmission, error) {
	return c.TransmitWith(msg, nil)
}

// TransmitWith is Transmit with a hook: after the trojan and spy
// kernels are launched but before the machine runs, beforeRun is
// called with a flag that flips to true once every spy block has
// finished receiving. Concurrent workloads (background noise, the
// Sec. VI experiments) key their termination off that flag so the
// machine run can complete.
func (c *Channel) TransmitWith(msg []byte, beforeRun func(stop *bool) error) (*Transmission, error) {
	bits := BytesToBits(msg)
	if len(bits) == 0 {
		return nil, fmt.Errorf("core: empty message")
	}
	n := len(c.Pairs)
	streams := splitRoundRobin(bits, n)
	T := c.Cfg.BitPeriod

	samples := make([][]probeSample, n)
	boundary := c.Spy.Thr.Boundary(c.Spy.Remote())
	stop := new(bool)
	spiesLeft := n

	for si := range c.Pairs {
		si := si
		pair := c.Pairs[si]
		stream := streams[si]

		// Trojan sender: per bit epoch, hammer the set for '1' or
		// burn heavy arithmetic for '0'. The paper's trojan uses one
		// warp (32 threads) per thread block.
		err := c.Trojan.Proc.Launch(fmt.Sprintf("trojan-set%d", si), 0, func(k *cudart.Kernel) {
			var lats []arch.Cycles
			for bi, b := range stream {
				epochEnd := arch.Cycles(bi+1) * T
				for k.Now() < epochEnd {
					if b == 1 {
						lats, _ = k.ProbeSet(lats, pair.TE.Lines)
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

		// Spy receiver: the paper's spy block runs 1024 threads — one
		// warp probes while the rest drain the shared-memory sample
		// buffer to global memory; the 32 KB shared buffer is its
		// occupancy cost.
		endTime := arch.Cycles(len(stream))*T + T/2
		err = c.Spy.Proc.Launch(fmt.Sprintf("spy-set%d", si), arch.MaxSharedMemPerBlock, func(k *cudart.Kernel) {
			defer func() {
				spiesLeft--
				if spiesLeft == 0 {
					*stop = true
				}
			}()
			lats, _ := k.ProbeSet(nil, pair.SE.Lines) // initial prime
			for k.Now() < endTime {
				lats, _ = k.ProbeSet(lats, pair.SE.Lines)
				misses := 0
				var sum float64
				for _, l := range lats {
					if float64(l) > boundary {
						misses++
					}
					sum += float64(l)
				}
				k.SharedWrite() // record into shared buffer
				samples[si] = append(samples[si], probeSample{
					t:      k.Now(),
					misses: misses,
					avgLat: sum / float64(len(lats)),
				})
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if beforeRun != nil {
		if err := beforeRun(stop); err != nil {
			return nil, err
		}
	}
	c.Trojan.m.Run()

	// Decode each stream: majority of per-probe miss-count decisions
	// within the epoch's guarded window.
	decoded := make([][]byte, n)
	var lastSample arch.Cycles
	for si := range c.Pairs {
		stream := streams[si]
		decoded[si] = make([]byte, len(stream))
		guard := arch.Cycles(float64(T) * c.Cfg.GuardFrac)
		for bi := range stream {
			lo, hi := arch.Cycles(bi)*T+guard, arch.Cycles(bi+1)*T
			ones, zeros := 0, 0
			for _, s := range samples[si] {
				if s.t < lo || s.t >= hi {
					continue
				}
				if s.misses*2 > len(c.Pairs[si].SE.Lines) {
					ones++
				} else {
					zeros++
				}
			}
			if ones > zeros {
				decoded[si][bi] = 1
			}
		}
		if k := len(samples[si]); k > 0 && samples[si][k-1].t > lastSample {
			lastSample = samples[si][k-1].t
		}
	}

	rx := mergeRoundRobin(decoded, len(bits))
	tx := &Transmission{
		SentBits: bits, ReceivedBits: rx, Duration: lastSample,
		ClockHz: c.Trojan.m.Profile().Lat.ClockHz,
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
