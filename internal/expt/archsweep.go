// E18 "archsweep": sweep the paper's attack chain across architecture
// profiles (P100/DGX-1 -> V100/DGX-2 -> A100-class). The paper frames
// its findings as a class of attacks on multi-GPU boxes, not one box;
// this experiment asks the Sec. VII question directly — how do the
// channels behave as cache geometry, GPU count, and topology change?
// For each profile it re-runs, from scratch and with timing only:
//
//  1. the Fig. 4 timing characterization (the four latency clusters
//     move with the profile's latency model and must be re-learned);
//  2. the Table I geometry reverse engineering (sets, associativity,
//     line size, replacement policy — the discovered geometry is
//     checked against the profile's ground truth);
//  3. the Fig. 7 cross-process eviction-set alignment;
//  4. a covert transmission with bandwidth and error rate.
//
// Trial-decomposed: one trial per profile. Trials deliberately seed
// from the run seed (like mig and pairs) so the only thing that
// differs between them is the architecture; parallel/serial identity
// is untouched because the seeding is a pure function of the trial
// index.
package expt

import (
	"spybox/internal/arch"
	"spybox/internal/core"
	"spybox/internal/sim"
)

// archsweepSets is how many aligned set pairs the covert phase drives.
const archsweepSets = 2

// archsweepMessageBytes is the covert message length per scale.
func archsweepMessageBytes(s Scale) int {
	switch s {
	case Small:
		return 32
	case Paper:
		return 512
	default:
		return 160
	}
}

// archOut is one profile's sweep outcome.
type archOut struct {
	prof       arch.Profile
	centers    [4]float64
	localB     float64
	remoteB    float64
	geo        core.Geometry
	geoOK      bool
	trojanSets int
	spySets    int
	alignedIdx int
	bw         float64
	errPct     float64
}

// archSweepTrial runs the full attack chain on one profile.
func archSweepTrial(p Params, prof arch.Profile) (archOut, error) {
	out := archOut{prof: prof, alignedIdx: -1}
	tp := p
	tp.Arch = prof.Name
	m := machineFor(tp, sim.Options{Seed: p.Seed})

	// 1. Timing characterization: thresholds are re-learned per
	// profile, never carried over.
	timing, err := core.CharacterizeTiming(m, trojanGPU, spyGPU, 48, p.Seed^0xfeed)
	if err != nil {
		return out, err
	}
	out.centers = timing.Thresholds.Centers
	out.localB = timing.Thresholds.LocalBoundary
	out.remoteB = timing.Thresholds.RemoteBoundary

	// 2. Geometry reverse engineering on the trojan GPU.
	pages := discoveryPages(prof, p.Scale)
	trojan, err := core.NewAttacker(m, trojanGPU, trojanGPU, pages, timing.Thresholds, p.Seed^0x1)
	if err != nil {
		return out, err
	}
	tg, err := trojan.DiscoverPageGroups(trojan.Ways())
	if err != nil {
		return out, err
	}
	fresh, err := core.NewAttacker(m, trojanGPU, trojanGPU, 16, timing.Thresholds, p.Seed^0x32)
	if err != nil {
		return out, err
	}
	out.geo, err = trojan.InferGeometry(tg, 2*prof.L2Ways, fresh)
	if err != nil {
		return out, err
	}
	out.geoOK = out.geo.Sets == prof.L2Sets && out.geo.Ways == prof.L2Ways &&
		out.geo.LineSize == prof.L2LineSize && out.geo.Policy == "LRU"

	// 3. Cross-process alignment from the spy GPU over NVLink.
	spy, sSets, err := newDiscovered(m, spyGPU, pages, timing.Thresholds, p.Seed^0x2)
	if err != nil {
		return out, err
	}
	tSets := trojan.AllEvictionSets(tg, trojan.Ways())
	out.trojanSets, out.spySets = len(tSets), len(sSets)
	if len(tSets) == 0 || len(sSets) == 0 {
		return out, nil // attack dead on this profile; still a result
	}
	out.alignedIdx, _, err = core.AlignSweep(trojan, spy, tSets[0], sSets, 3)
	if err != nil {
		return out, err
	}
	if out.alignedIdx < 0 {
		return out, nil
	}

	// 4. Covert transmission over a fixed number of aligned pairs.
	chPairs, err := core.AlignChannels(trojan, spy, tSets, sSets, archsweepSets)
	if err != nil {
		return out, err
	}
	ch, err := core.NewChannel(trojan, spy, chPairs, core.DefaultCovertConfig())
	if err != nil {
		return out, err
	}
	tx, err := ch.Transmit(randomMessage(p.Seed^0xa5eed, archsweepMessageBytes(p.Scale)))
	if err != nil {
		return out, err
	}
	out.bw = tx.BandwidthMBps()
	out.errPct = tx.ErrorRate() * 100
	return out, nil
}

// ArchSweep reruns the attack chain on every named profile and reports
// how each stage ports. Params.Arch is ignored: the sweep covers all
// profiles by construction.
func ArchSweep(p Params) (*Result, error) {
	profs := arch.Profiles()
	outs, err := RunTrials(p, len(profs), func(t Trial) (archOut, error) {
		tp := t.Params
		tp.Seed = p.Seed
		return archSweepTrial(tp, profs[t.Index])
	})
	if err != nil {
		return nil, err
	}

	r := newResult("archsweep", "Attack portability across GPU box generations")
	ported := 0
	for _, o := range outs {
		name := o.prof.Name
		r.Rowf("--- %s", f("box", o.prof.String()))
		r.Rowf("timing clusters: [%.0f %.0f %.0f %.0f] cy, boundaries local %.0f / remote %.0f",
			fu("cluster_local_hit", "cycles", o.centers[0]), fu("cluster_local_miss", "cycles", o.centers[1]),
			fu("cluster_remote_hit", "cycles", o.centers[2]), fu("cluster_remote_miss", "cycles", o.centers[3]),
			fu("local_boundary", "cycles", o.localB), fu("remote_boundary", "cycles", o.remoteB))
		r.Rowf("geometry RE:     measured %d sets x %d ways x %d B (%s), truth %d x %d x %d — %s",
			f("measured_sets", o.geo.Sets), f("measured_ways", o.geo.Ways),
			fu("measured_line_size", "bytes", o.geo.LineSize), f("policy", o.geo.Policy),
			f("true_sets", o.prof.L2Sets), f("true_ways", o.prof.L2Ways),
			fu("true_line_size", "bytes", o.prof.L2LineSize), f("geo_verdict", verdict(o.geoOK)))
		r.Rowf("eviction sets:   trojan covers %d, spy covers %d; cross-process alignment %s",
			f("trojan_sets", o.trojanSets), f("spy_sets", o.spySets),
			f("align_verdict", verdict(o.alignedIdx >= 0)))
		if o.alignedIdx >= 0 {
			r.Rowf("covert channel:  %.4f MB/s at %.2f%% error over %d sets",
				fu("bandwidth", "MB/s", o.bw), fu("error", "%", o.errPct), f("sets", archsweepSets))
		} else {
			r.Notef("covert channel:  not established")
		}
		r.Blank()
		if o.geoOK && o.alignedIdx >= 0 {
			ported++
		}
		suffix := "_" + name
		r.SetMetric("geo_ok"+suffix, "", boolAsMetric(o.geoOK))
		r.SetMetric("aligned"+suffix, "", boolAsMetric(o.alignedIdx >= 0))
		r.SetMetric("measured_ways"+suffix, "", float64(o.geo.Ways))
		r.SetMetric("measured_sets"+suffix, "", float64(o.geo.Sets))
		r.SetMetric("bw_MBps"+suffix, "MB/s", o.bw)
		r.SetMetric("err_pct"+suffix, "%", o.errPct)
	}
	r.Rowf("the attack chain ports end to end on %d/%d profiles: the channels are a property",
		f("ported", ported), f("profiles", len(profs)))
	r.Notef("of NUMA home-L2 caching over NVLink, not of any one machine's constants. Wider")
	r.Notef("associativity raises discovery cost (eviction sets need `ways` lines) and all-to-all")
	r.Notef("fabrics remove the unconnected-pair refusals, but neither closes the channel.")
	r.SetMetric("profiles", "", float64(len(profs)))
	r.SetMetric("ported", "", float64(ported))
	return r, nil
}

// verdict renders a pass/fail tag for report lines.
func verdict(ok bool) string {
	if ok {
		return "OK"
	}
	return "MISMATCH"
}

// boolAsMetric maps a verdict into the metrics table.
func boolAsMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
