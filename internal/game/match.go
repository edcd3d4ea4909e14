// The sim driver: Play runs a full match on one simulated machine.
// Each round is two Machine.Run windows — the covert transmission
// under the defense sampler, then a benign baseline (a local victim
// plus a paced peer-to-peer stream between two uninvolved GPUs) under
// a fresh sampler — followed by one Engine.Step and the actuation of
// both sides' moves through mitigate.Controls and the channel's live
// reconfiguration hooks.
package game

import (
	"fmt"

	"spybox/internal/arch"
	"spybox/internal/core"
	"spybox/internal/cudart"
	"spybox/internal/mitigate"
	"spybox/internal/nvlink"
	"spybox/internal/sim"
	"spybox/internal/victim"
	"spybox/internal/xrand"
)

// MatchConfig shapes a match. The zero value is not usable; Rounds,
// Threshold, and the engine knobs must be set, the rest defaults.
type MatchConfig struct {
	Rounds int
	// ChunkBytes is the payload transmitted per round.
	ChunkBytes int
	// Interval is the sampler subwindow length.
	Interval arch.Cycles
	// Threshold seeds the defender's detection boundary (txns/Mcycle).
	Threshold float64
	// Aggressiveness and Static configure the defender policy.
	Aggressiveness float64
	Static         bool

	// SamplerGPU hosts the defense sampler; VictimGPU a local compute
	// victim; BenignA->BenignB is the benign peer-to-peer stream whose
	// sustained rate is the false-positive baseline.
	SamplerGPU       arch.DeviceID
	VictimGPU        arch.DeviceID
	BenignA, BenignB arch.DeviceID

	// Benign stream pacing: BenignIters chunks of BenignLines lines,
	// each followed by BenignPause cycles of compute, sized so the
	// stream's sustained rate sits in the same decade as the
	// detection thresholds the sweep visits.
	BenignIters int
	BenignLines int
	BenignPause arch.Cycles
}

func (c *MatchConfig) setDefaults() {
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 8
	}
	if c.Interval == 0 {
		c.Interval = 50_000
	}
	if c.SamplerGPU == 0 {
		c.SamplerGPU = 7
	}
	if c.VictimGPU == 0 {
		c.VictimGPU = 4
	}
	if c.BenignA == 0 && c.BenignB == 0 {
		c.BenignA, c.BenignB = 2, 3
	}
	if c.BenignIters == 0 {
		c.BenignIters = 12
	}
	if c.BenignLines == 0 {
		c.BenignLines = 64
	}
	if c.BenignPause == 0 {
		c.BenignPause = 40_000
	}
}

// MatchResult is a finished match.
type MatchResult struct {
	Trace   []RoundTrace
	Summary Summary
	// FinalThreshold is where the defender's boundary ended up.
	FinalThreshold float64
}

// Play runs a match over an established channel on m. All randomness
// (payloads, process seeds, hop targets) comes from rng; a match is a
// pure function of (machine state, channel, cfg, rng state).
func Play(m *sim.Machine, ch *core.Channel, cfg MatchConfig, rng *xrand.Source) (*MatchResult, error) {
	cfg.setDefaults()
	if rng == nil {
		return nil, fmt.Errorf("game: Play needs an rng")
	}
	topo := m.Topology()
	planes := topo.NumPlanes()
	suspect := ch.Trojan.Proc.Device()
	ctrl, err := mitigate.NewControls(m, suspect, cfg.Threshold)
	if err != nil {
		return nil, err
	}
	eng, err := New(Config{
		Rounds:         cfg.Rounds,
		Planes:         planes,
		Aggressiveness: cfg.Aggressiveness,
		Static:         cfg.Static,
		BitPeriod:      ch.Cfg.BitPeriod,
	}, rng)
	if err != nil {
		return nil, err
	}

	fec := false
	repinned := false
	msg := make([]byte, cfg.ChunkBytes)
	for round := 0; round < cfg.Rounds; round++ {
		for i := range msg {
			msg[i] = byte(rng.Uint64())
		}

		// Covert window: transmit under the sampler's eye.
		cov := mitigate.NewSampler(topo, cfg.Interval)
		covSeed := rng.Uint64()
		hook := func(stop *bool) error {
			return cov.Launch(m, cfg.SamplerGPU, covSeed, func() bool { return *stop })
		}
		var raw *core.Transmission
		var okBytes int
		if fec {
			recovered, _, rawTx, terr := ch.TransmitReliableWith(msg, hook)
			if terr != nil {
				return nil, terr
			}
			raw, okBytes = rawTx, matchingBytes(msg, recovered)
		} else {
			rawTx, terr := ch.TransmitWith(msg, hook)
			if terr != nil {
				return nil, terr
			}
			raw, okBytes = rawTx, matchingBytes(msg, core.BitsToBytes(rawTx.ReceivedBits))
		}
		localPlane := -1
		if planes > 0 {
			localPlane, _ = cov.LocalizePlane(ctrl.Threshold())
		}

		// Benign window: the false-positive baseline.
		benRate, err := benignWindow(m, topo, &cfg, rng)
		if err != nil {
			return nil, err
		}

		throttledPlane, throttleFactor := ctrl.ThrottledPlane()
		obs := Observation{
			CovertRate:     cov.MedianMaxLinkRate(),
			LocalPlane:     localPlane,
			BenignRate:     benRate,
			BenignPlane:    topo.PlaneFor(cfg.BenignA, cfg.BenignB),
			Threshold:      ctrl.Threshold(),
			ThrottledPlane: throttledPlane,
			ThrottleFactor: throttleFactor,
			Partitioned:    ctrl.Partitioned(),
			VictimRepinned: repinned,
			TxPlane:        ch.Plane(),
			GoodputMBps:    goodputMBps(okBytes, raw),
			ErrPct:         100 * raw.ErrorRate(),
		}
		tr := eng.Step(obs)

		// Actuate the defender's move...
		switch tr.Action {
		case ActRaiseThreshold:
			ctrl.ScaleThreshold(1.5)
		case ActLowerThreshold:
			ctrl.ScaleThreshold(0.75)
		case ActThrottlePlane:
			err = ctrl.ThrottlePlane(tr.ActPlane, tr.Factor)
		case ActRepinVictim:
			err = ctrl.RepinPair(cfg.BenignA, cfg.BenignB, tr.ActPlane)
			repinned = err == nil
		case ActPartition:
			err = ctrl.SetPartition(true)
		}
		if err != nil {
			return nil, err
		}
		// ...and the attacker's.
		if tr.BitPeriod != ch.Cfg.BitPeriod {
			if err := ch.Reconfigure(core.CovertConfig{BitPeriod: tr.BitPeriod, GuardFrac: ch.Cfg.GuardFrac}); err != nil {
				return nil, err
			}
		}
		if planes > 0 && tr.TxPlane != obs.TxPlane {
			if err := ch.SetPlane(tr.TxPlane); err != nil {
				return nil, err
			}
		}
		fec = tr.FEC
	}

	trace := eng.Trace()
	return &MatchResult{
		Trace:          trace,
		Summary:        Summarize(trace),
		FinalThreshold: ctrl.Threshold(),
	}, nil
}

// benignWindow runs the baseline workloads under a fresh sampler and
// returns its median busiest-link rate.
func benignWindow(m *sim.Machine, topo *nvlink.Topology, cfg *MatchConfig, rng *xrand.Source) (float64, error) {
	ben := mitigate.NewSampler(topo, cfg.Interval)
	streamDone, victDone := false, false
	vict := victim.NewVectorAdd(m, cfg.VictimGPU, rng.Uint64(),
		victim.Config{ArrayKB: 256, Passes: 3, ChunkDelay: 1500})
	bp, err := cudart.NewProcess(m, cfg.BenignA, rng.Uint64())
	if err != nil {
		return 0, err
	}
	if err := bp.EnablePeerAccess(cfg.BenignB); err != nil {
		return 0, err
	}
	buf, err := bp.MallocOnDevice(cfg.BenignB, uint64(cfg.BenignLines*m.LineSize()))
	if err != nil {
		return 0, err
	}
	if err := ben.Launch(m, cfg.SamplerGPU, rng.Uint64(), func() bool { return streamDone }); err != nil {
		return 0, err
	}
	pauseOps := int(cfg.BenignPause / arch.LatHeavyOp)
	if err := bp.Launch("benign-stream", 0, func(k *cudart.Kernel) {
		defer func() { streamDone = true }()
		for it := 0; it < cfg.BenignIters; it++ {
			k.Stream(buf, cfg.BenignLines, m.LineSize())
			k.BusyHeavy(pauseOps)
			k.Yield()
		}
	}); err != nil {
		return 0, err
	}
	if err := vict.Launch(&victDone); err != nil {
		return 0, err
	}
	m.Run()
	return ben.MedianMaxLinkRate(), nil
}

// matchingBytes counts positions where got reproduces want.
func matchingBytes(want, got []byte) int {
	n := 0
	for i := range want {
		if i < len(got) && got[i] == want[i] {
			n++
		}
	}
	return n
}

// goodputMBps converts correctly delivered payload bytes over the
// transmission's duration to MB/s of simulated time.
func goodputMBps(okBytes int, raw *core.Transmission) float64 {
	if raw.Duration == 0 {
		return 0
	}
	return float64(okBytes) / 1e6 / (float64(raw.Duration) / float64(raw.ClockHz))
}
