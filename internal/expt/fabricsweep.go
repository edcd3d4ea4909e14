// The "fabricsweep" extension: covert-channel quality under switch-
// port contention. On NVSwitch boxes the two-stage fabric model
// (internal/nvlink/fabric.go) pins every GPU pair to one switch plane
// and serializes traffic at the GPU-side ports. This experiment drives
// the covert channel while 0–3 competing bulk P2P streams ride the
// *same* egress port and plane as the spy's probes, and reports how
// bandwidth, error rate, and port queueing respond — the contention
// picture the flat per-hop charge could never show (it would have let
// every stream through at full speed, inflating archsweep's NVSwitch
// bandwidth numbers).
//
// Trial-decomposed: one trial per competitor count. Like sec6 and
// archsweep, trials deliberately seed their machines from the run seed
// so the four conditions form a controlled comparison — the only thing
// that differs is the number of co-scheduled streams.
package expt

import (
	"fmt"

	"spybox/internal/arch"
	"spybox/internal/cudart"
	"spybox/internal/xrand"
)

// fabricsweepStreams is the largest competitor count swept (0..N).
const fabricsweepStreams = 3

// fabricsweepArch resolves the profile the sweep runs on: the run's
// own architecture when it models a switch fabric, otherwise the
// DGX-2 profile — the default p100-dgx1 has point-to-point links and
// no planes to contend on.
func fabricsweepArch(p Params) string {
	prof := p.mustProfile()
	if prof.Fabric.Enabled() {
		return prof.Name
	}
	return "v100-dgx2"
}

// contentionTargets lists the GPUs a competitor on src can stream to
// so the transfer rides the given switch plane, excluding the attack
// endpoints (their L2s must stay untouched: the sweep isolates *port*
// contention from cache pollution). Competitor i targets entry
// i%len — several streams to one target still share src's egress port.
func contentionTargets(fab arch.FabricConfig, numGPUs int, src, avoidA, avoidB arch.DeviceID, plane int) []arch.DeviceID {
	var out []arch.DeviceID
	for d := arch.DeviceID(0); int(d) < numGPUs; d++ {
		if d == src || d == avoidA || d == avoidB {
			continue
		}
		if fab.PlaneFor(src, d) == plane {
			out = append(out, d)
		}
	}
	return out
}

// fabricTrial is one condition's outcome.
type fabricTrial struct {
	streams     int
	bw          float64
	errPct      float64
	planeTxns   uint64
	portBursts  uint64
	portQueued  uint64
	queueCycles arch.Cycles
	planeTotal  uint64
	linkTotal   uint64
}

// fabricsweepTrial runs the covert channel on p's architecture against
// `streams` competing bulk P2P streams pinned to the covert plane.
func fabricsweepTrial(p Params, streams int) (fabricTrial, error) {
	out := fabricTrial{streams: streams}
	pair, ch, err := setupChannel(p, 2)
	if err != nil {
		return out, err
	}
	topo := pair.m.Topology()
	covPlane := topo.PlaneFor(spyGPU, trojanGPU)
	if covPlane < 0 {
		return out, fmt.Errorf("fabricsweep: profile %q has no switch fabric", p.Arch)
	}
	targets := contentionTargets(pair.m.Profile().Fabric, pair.m.NumGPUs(), spyGPU, trojanGPU, spyGPU, covPlane)
	if len(targets) == 0 {
		return out, fmt.Errorf("fabricsweep: no contention targets on plane %d", covPlane)
	}

	// Competitors: independent processes on the spy's GPU bulk-reading
	// buffers homed on other GPUs of the covert plane. They share the
	// spy's egress port, nothing else — no line they touch lives in
	// the trojan's L2.
	type competitor struct {
		proc  *cudart.Process
		buf   arch.VA
		lines int
	}
	const bulkKB = 256
	comps := make([]competitor, streams)
	for i := range comps {
		proc, err := cudart.NewProcess(pair.m, spyGPU, p.Seed^uint64(0xfab0+i))
		if err != nil {
			return out, err
		}
		target := targets[i%len(targets)]
		if err := proc.EnablePeerAccess(target); err != nil {
			return out, err
		}
		buf, err := proc.MallocOnDevice(target, bulkKB*1024)
		if err != nil {
			return out, err
		}
		comps[i] = competitor{proc: proc, buf: buf, lines: bulkKB * 1024 / pair.m.LineSize()}
	}

	// Only the transmission window should be measured: discovery and
	// alignment also crossed the fabric.
	topo.ResetStats()
	msg := randomMessage(p.Seed^0xfab, archsweepMessageBytes(p.Scale))
	tx, err := ch.TransmitWith(msg, func(stop *bool) error {
		for i, c := range comps {
			c := c
			rng := xrand.New(p.Seed ^ uint64(0xb01c+i))
			start := rng.Intn(c.lines - 32)
			if err := c.proc.Launch(fmt.Sprintf("bulk-%d", i), 0, func(k *cudart.Kernel) {
				for !*stop {
					k.Stream(c.buf+arch.VA(start*pair.m.LineSize()), 32, pair.m.LineSize())
					k.Busy(16)
				}
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}

	out.bw = tx.BandwidthMBps()
	out.errPct = tx.ErrorRate() * 100
	out.planeTxns = topo.Planes()[covPlane].Transactions
	out.planeTotal = topo.TotalPlaneTransactions()
	out.linkTotal = topo.TotalTransactions()
	port := topo.EgressPort(spyGPU, covPlane)
	out.portBursts, out.portQueued, out.queueCycles = port.Bursts, port.Queued, port.QueueCycles
	return out, nil
}

// FabricSweep measures covert bandwidth and error under 0–3 competing
// bulk P2P streams sharing the covert stream's switch plane and egress
// port. Runs on the architecture given by -arch when it has a switch
// fabric, otherwise on v100-dgx2.
func FabricSweep(p Params) (*Result, error) {
	archName := fabricsweepArch(p)
	outs, err := RunTrials(p, fabricsweepStreams+1, func(t Trial) (fabricTrial, error) {
		// Condition trials rebuild the same machine from the run seed;
		// see the package comment and EXPERIMENTS.md.
		tp := t.Params
		tp.Seed = p.Seed
		tp.Arch = archName
		return fabricsweepTrial(tp, t.Index)
	})
	if err != nil {
		return nil, err
	}

	prof, err := arch.LookupProfile(archName)
	if err != nil {
		return nil, err
	}
	r := newResult("fabricsweep", "Covert channel under switch-port contention")
	r.Rowf("box: %s", f("box", prof.String()))
	r.Rowf("covert pair %v->%v rides switch plane %d; competitors share the spy's egress port",
		f("spy_gpu", spyGPU), f("trojan_gpu", trojanGPU),
		f("covert_plane", prof.Fabric.PlaneFor(spyGPU, trojanGPU)))
	r.Blank()
	r.Notef("%-14s %-12s %-10s %-14s %-20s %s", "bulk streams", "bw MB/s", "error %", "plane txns", "port bursts queued", "queue cycles")
	for _, o := range outs {
		r.Rowf("%-14d %-12.4f %-10.2f %-14d %7d / %-10d %d",
			f("streams", o.streams), fu("bandwidth", "MB/s", o.bw), fu("error", "%", o.errPct),
			f("plane_txns", o.planeTxns), f("port_queued", o.portQueued),
			f("port_bursts", o.portBursts), fu("queue_cycles", "cycles", uint64(o.queueCycles)))
		suffix := fmt.Sprintf("_%dstreams", o.streams)
		r.SetMetric("bw_MBps"+suffix, "MB/s", o.bw)
		r.SetMetric("err_pct"+suffix, "%", o.errPct)
		r.SetMetric("queue_cycles"+suffix, "cycles", float64(o.queueCycles))
		r.SetMetric("plane_txns"+suffix, "txns", float64(o.planeTxns))
		if o.planeTotal != o.linkTotal {
			// Accounting invariant: every traversal lands on exactly
			// one plane. A mismatch is a model bug worth shouting about.
			r.Errorf("ACCOUNTING ERROR: plane txns %d != link txns %d", o.planeTotal, o.linkTotal)
		}
	}
	r.Blank()
	r.Notef("competing streams queue FIFO at the shared egress port, so the spy's probe")
	r.Notef("bursts wait out the backlog. The covert protocol paces bits on a fixed slot")
	r.Notef("clock, so raw bandwidth barely moves — instead the queueing pushes probes off")
	r.Notef("their slots and the ERROR RATE climbs with every added stream, while the port")
	r.Notef("counters expose the contention directly (queued bursts, queue cycles).")
	r.SetMetric("streams_max", "", float64(fabricsweepStreams))
	r.SetMetric("err_rise_pct", "%", outs[fabricsweepStreams].errPct-outs[0].errPct)
	r.SetMetric("queue_growth", "x", float64(outs[fabricsweepStreams].queueCycles)/float64(max(1, uint64(outs[0].queueCycles))))
	return r, nil
}
