// E13-E14: the defense-side studies — Sec. VI noise mitigation via
// occupancy blocking and Sec. VII NVLink-traffic detection.
package expt

import (
	"fmt"

	"spybox/internal/arch"
	"spybox/internal/cudart"
	"spybox/internal/mitigate"
	"spybox/internal/victim"
)

// secVIMessageBytes sizes the probe transmissions.
func secVIMessageBytes(s Scale) int {
	if s == Small {
		return 32
	}
	return 128
}

// SecVI measures the covert channel's error rate in three conditions:
// quiet machine, with a concurrent noise application on the target
// GPU, and with the noise application locked out by occupancy
// blocking (the paper's mitigation). Trial-decomposed: one trial per
// condition. Every condition deliberately rebuilds the same machine
// from the run seed (rather than the trial seed), so the three error
// rates form a controlled comparison where only the condition differs.
func SecVI(p Params) (*Result, error) {
	const noiseBlocks = 28
	const noiseShared = 8 << 10

	type sec6Trial struct {
		errRate float64
		placed  int
	}
	conds := []struct{ withNoise, withBlocking bool }{
		{false, false}, // quiet machine
		{true, false},  // concurrent noise app
		{true, true},   // noise + occupancy blocking
	}
	outs, err := RunTrials(p, len(conds), func(t Trial) (sec6Trial, error) {
		withNoise, withBlocking := conds[t.Index].withNoise, conds[t.Index].withBlocking
		tp := t.Params
		tp.Seed = p.Seed
		pair, ch, err := setupChannel(tp, 2)
		if err != nil {
			return sec6Trial{}, err
		}
		msg := randomMessage(p.Seed^0x6e, secVIMessageBytes(p.Scale))

		var innerStop *bool
		if withBlocking {
			_, err = mitigate.Occupy(pair.m, trojanGPU, p.Seed^0xb10c,
				func() bool { return innerStop != nil && *innerStop })
			if err != nil {
				return sec6Trial{}, err
			}
		}
		var noisePlaced int
		tx, err := ch.TransmitWith(msg, func(stop *bool) error {
			innerStop = stop
			if withNoise {
				noise, nerr := mitigate.NewNoise(pair.m, trojanGPU, p.Seed^0x401, noiseBlocks, noiseShared)
				if nerr != nil {
					return nerr
				}
				noisePlaced, nerr = noise.Launch(stop)
				return nerr
			}
			return nil
		})
		if err != nil {
			return sec6Trial{}, err
		}
		return sec6Trial{errRate: tx.ErrorRate(), placed: noisePlaced}, nil
	})
	if err != nil {
		return nil, err
	}

	r := newResult("sec6", "Noise mitigation via occupancy blocking")
	quiet, noisy, blocked := outs[0].errRate, outs[1].errRate, outs[2].errRate
	placedNoisy, placedBlocked := outs[1].placed, outs[2].placed
	r.Notef("%-34s %-12s %s", "condition", "error rate", "noise blocks resident")
	r.Rowf("%-34s %-12.2f%% %d",
		f("condition", "quiet machine"), fu("error", "%", 100*quiet), f("noise_blocks", 0))
	r.Rowf("%-34s %-12.2f%% %d",
		f("condition", "concurrent noise app"), fu("error", "%", 100*noisy), f("noise_blocks", placedNoisy))
	r.Rowf("%-34s %-12.2f%% %d",
		f("condition", "noise + occupancy blocking"), fu("error", "%", 100*blocked), f("noise_blocks", placedBlocked))
	r.Blank()
	r.Notef("blocking pins all leftover shared memory, so the noise app cannot co-reside")
	r.Notef("and the channel recovers its quiet-machine quality (Sec. VI).")
	r.SetMetric("error_quiet_pct", "%", 100*quiet)
	r.SetMetric("error_noisy_pct", "%", 100*noisy)
	r.SetMetric("error_blocked_pct", "%", 100*blocked)
	r.SetMetric("noise_blocks_without_blocking", "blocks", float64(placedNoisy))
	r.SetMetric("noise_blocks_with_blocking", "blocks", float64(placedBlocked))
	return r, nil
}

// SecVII evaluates the proposed detector: per-subwindow NVLink
// traffic sampling under (a) an idle fabric, (b) benign workloads
// including a coarse peer-to-peer bulk transfer, and (c) the covert
// channel. The decision statistic is the MEDIAN subwindow rate on the
// busiest link: sustained fine-grained probing keeps every subwindow
// hot, while benign bulk transfers light up only the burst's window.
func SecVII(p Params) (*Result, error) {
	pair, ch, err := setupChannel(p, 2)
	if err != nil {
		return nil, err
	}
	const samplerGPU arch.DeviceID = 7
	const interval arch.Cycles = 150_000
	const thresholdPerMCycle = 2000.0

	r := newResult("sec7", "NVLink traffic detection")
	r.Notef("%-30s %-10s %-16s %-16s %s", "window", "subwins", "median rate/Mcy", "peak rate/Mcy", "detected")

	report := func(name string, s *mitigate.Sampler) {
		med, peak := s.MedianMaxLinkRate(), s.PeakMaxLinkRate()
		hit := med > thresholdPerMCycle
		r.Rowf("%-30s %-10d %-16.1f %-16.1f %v",
			f("window", name), f("subwindows", len(s.Windows())),
			fu("median_rate", "txns/Mcycle", med), fu("peak_rate", "txns/Mcycle", peak),
			f("detected", hit))
		r.SetMetric("median_rate_"+name, "txns/Mcycle", med)
		if hit {
			r.SetMetric("detected_"+name, "", 1)
		} else {
			r.SetMetric("detected_"+name, "", 0)
		}
	}

	// (a) idle fabric: only a local workload on GPU2 runs.
	idleSampler := mitigate.NewSampler(pair.m.Topology(), interval)
	idleDone := false
	idle := victim.NewVectorAdd(pair.m, 2, p.Seed^0x700, victim.Config{ArrayKB: 256, Passes: 6, ChunkDelay: 1500})
	if err := idleSampler.Launch(pair.m, samplerGPU, p.Seed^0x710, func() bool { return idleDone }); err != nil {
		return nil, err
	}
	if err := idle.Launch(&idleDone); err != nil {
		return nil, err
	}
	pair.m.Run()
	report("idle (local workload only)", idleSampler)

	// (b) benign: a victim on GPU0 plus a coarse one-shot peer-to-peer
	// bulk copy GPU1 -> GPU0 (what real multi-GPU apps do).
	benSampler := mitigate.NewSampler(pair.m.Topology(), interval)
	benDone, bulkDone := false, false
	bulk := cudart.MustNewProcess(pair.m, spyGPU, p.Seed^0x701)
	if err := bulk.EnablePeerAccess(trojanGPU); err != nil {
		return nil, err
	}
	remoteBuf, err := bulk.MallocOnDevice(trojanGPU, 512*1024)
	if err != nil {
		return nil, err
	}
	if err := benSampler.Launch(pair.m, samplerGPU, p.Seed^0x711, func() bool { return benDone && bulkDone }); err != nil {
		return nil, err
	}
	if err := bulk.Launch("bulk-copy", 0, func(k *cudart.Kernel) {
		defer func() { bulkDone = true }()
		k.Stream(remoteBuf, 512*1024/arch.CacheLineSize, arch.CacheLineSize)
	}); err != nil {
		return nil, err
	}
	ben := victim.NewVectorAdd(pair.m, trojanGPU, p.Seed^0x702, victim.Config{ArrayKB: 256, Passes: 8, ChunkDelay: 1500})
	if err := ben.Launch(&benDone); err != nil {
		return nil, err
	}
	pair.m.Run()
	report("benign (victims + bulk P2P)", benSampler)

	// (c) covert channel window.
	covSampler := mitigate.NewSampler(pair.m.Topology(), interval)
	msg := randomMessage(p.Seed^0x703, secVIMessageBytes(p.Scale))
	tx, err := ch.TransmitWith(msg, func(stop *bool) error {
		return covSampler.Launch(pair.m, samplerGPU, p.Seed^0x712, func() bool { return *stop })
	})
	if err != nil {
		return nil, err
	}
	report("covert channel active", covSampler)

	r.Blank()
	r.Rowf("covert error rate during detection window: %.2f%%",
		fu("covert_error", "%", 100*tx.ErrorRate()))
	r.Rowf("threshold: median busiest-link rate > %.0f txns/Mcycle.",
		fu("threshold", "txns/Mcycle", thresholdPerMCycle))
	r.Notef("the covert channel's line-granular probing keeps every subwindow hot; benign")
	r.Notef("peer traffic is a one-shot burst, so its median subwindow is quiet (Sec. VII).")

	// On switch-based boxes the two-stage fabric pins each GPU pair to
	// one plane, so the detector can go beyond "a stream exists" and
	// name the plane it rides.
	if planeRates := covSampler.PlaneMedianRates(); len(planeRates) > 0 {
		r.Blank()
		r.Notef("per-plane median subwindow rates during the covert window:")
		for i, rate := range planeRates {
			r.Rowf("  switch plane %d: %8.1f txns/Mcy",
				f("plane", i), fu("rate", "txns/Mcycle", rate))
			r.SetMetric(fmt.Sprintf("plane_rate_%d", i), "txns/Mcycle", rate)
		}
		truth := pair.m.Topology().PlaneFor(spyGPU, trojanGPU)
		if plane, rate := covSampler.LocalizePlane(thresholdPerMCycle); plane >= 0 {
			r.Rowf("covert stream localized to switch plane %d (%.1f txns/Mcy; pair %v-%v is pinned to plane %d)",
				f("localized_plane", plane), fu("rate", "txns/Mcycle", rate),
				f("spy_gpu", spyGPU), f("trojan_gpu", trojanGPU), f("true_plane", truth))
			r.SetMetric("localized_plane", "", float64(plane))
		} else {
			r.Rowf("covert stream not localized to a single plane (pair %v-%v is pinned to plane %d)",
				f("spy_gpu", spyGPU), f("trojan_gpu", trojanGPU), f("true_plane", truth))
		}
	}
	return r, nil
}
