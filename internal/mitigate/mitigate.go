// Package mitigate implements both sides of the paper's last two
// sections: the attacker's noise-mitigation technique (Sec. VI —
// occupancy blocking via the leftover scheduling policy) and the
// defender's detection proposal (Sec. VII — NVLink traffic
// monitoring).
package mitigate

import (
	"fmt"
	"sort"

	"spybox/internal/arch"
	"spybox/internal/cudart"
	"spybox/internal/nvlink"
	"spybox/internal/sim"
	"spybox/internal/xrand"
)

// Noise is a background application competing for the target GPU's
// L2: it streams over a private buffer, adding contention jitter to
// everything else on that cache. Each block asks for shared memory,
// which is what the occupancy blocker starves it of.
type Noise struct {
	Proc      *cudart.Process
	Blocks    int
	SharedMem int
	buf       arch.VA
	lines     int
}

// NewNoise builds a noise app on dev with the given per-block shared
// memory demand (a typical compute kernel uses a tile buffer; 8 KB is
// representative).
func NewNoise(m *sim.Machine, dev arch.DeviceID, seed uint64, blocks, sharedMem int) (*Noise, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("mitigate: blocks must be positive")
	}
	p, err := cudart.NewProcess(m, dev, seed)
	if err != nil {
		return nil, err
	}
	const bufKB = 256
	buf, err := p.Malloc(bufKB * 1024)
	if err != nil {
		return nil, err
	}
	return &Noise{Proc: p, Blocks: blocks, SharedMem: sharedMem, buf: buf, lines: bufKB * 1024 / arch.CacheLineSize}, nil
}

// Launch starts as many noise blocks as the GPU will accept and
// returns the count placed. Blocks rejected by the occupancy limit —
// the Sec. VI defense in action — are simply not resident, exactly
// the leftover-policy behaviour.
func (n *Noise) Launch(stop *bool) (placed int, err error) {
	rng := xrand.New(uint64(n.Blocks) * 0x9e37)
	for b := 0; b < n.Blocks; b++ {
		start := rng.Intn(n.lines)
		lerr := n.Proc.Launch(fmt.Sprintf("noise-%d", b), n.SharedMem, func(k *cudart.Kernel) {
			for stop == nil || !*stop {
				k.Stream(n.buf+arch.VA(start*arch.CacheLineSize), 32, arch.CacheLineSize)
				k.Busy(16)
				if stop == nil {
					return
				}
			}
		})
		if lerr == nil {
			placed++
		}
	}
	return placed, nil
}

// OccupancyBlocker holds the idle blocks that saturate a GPU's
// shared memory so no other shared-memory-using kernel can co-reside.
type OccupancyBlocker struct {
	Proc   *cudart.Process
	Placed int
}

// Occupy launches idle 32 KB-shared-memory thread blocks on dev until
// the GPU rejects placement, pinning all leftover shared memory. The
// blocks never touch global memory, so they add no cache noise — the
// property Sec. VI relies on. Each blocker spins until stop() reports
// true; callers typically wire stop to the covert channel's
// transmission-complete flag so the machine run can finish.
func Occupy(m *sim.Machine, dev arch.DeviceID, seed uint64, stop func() bool) (*OccupancyBlocker, error) {
	if stop == nil {
		return nil, fmt.Errorf("mitigate: Occupy requires a stop predicate")
	}
	p, err := cudart.NewProcess(m, dev, seed)
	if err != nil {
		return nil, err
	}
	b := &OccupancyBlocker{Proc: p}
	for {
		err := p.Launch(fmt.Sprintf("blocker-%d", b.Placed), arch.MaxSharedMemPerBlock, func(k *cudart.Kernel) {
			for !stop() {
				k.BusyHeavy(2048) // idle spin, no global memory traffic
				k.Yield()
			}
		})
		if err != nil {
			break // GPU saturated: mission accomplished
		}
		b.Placed++
	}
	if b.Placed == 0 {
		return nil, fmt.Errorf("mitigate: could not place any blocker on %v", dev)
	}
	return b, nil
}

// Detector watches NVLink traffic for the signature of a cross-GPU
// cache attack: a sustained stream of fine-grained (cache-line-sized)
// remote transactions on one link. Sec. VII proposes exactly this. On
// switch-based boxes it additionally tracks per-plane counters, which
// is what lets the defense say *which switch plane* a stream rides.
type Detector struct {
	topo       *nvlink.Topology
	prev       []uint64 // per-link transaction counters, in Links() order
	prevPlanes []uint64
}

// NewDetector starts watching the fabric from its current state.
func NewDetector(topo *nvlink.Topology) *Detector {
	d := &Detector{topo: topo}
	d.prev = d.snapshot()
	d.prevPlanes = d.planeSnapshot()
	return d
}

func (d *Detector) snapshot() []uint64 {
	links := d.topo.Links()
	s := make([]uint64, len(links))
	for i, l := range links {
		s[i] = l.Transactions
	}
	return s
}

func (d *Detector) planeSnapshot() []uint64 {
	planes := d.topo.Planes()
	if len(planes) == 0 {
		return nil
	}
	s := make([]uint64, len(planes))
	for i, p := range planes {
		s[i] = p.Transactions
	}
	return s
}

// Observation summarizes one detection window.
type Observation struct {
	// MaxLinkTxns is the busiest link's transaction count this window.
	MaxLinkTxns uint64
	// MaxLink names the busiest link.
	MaxLink [2]arch.DeviceID
	// TotalTxns sums all links.
	TotalTxns uint64
	// PlaneTxns holds per-switch-plane transaction counts for the
	// window; nil on point-to-point boxes without a fabric.
	PlaneTxns []uint64
}

// Sample closes the current window and opens the next, returning the
// per-window traffic deltas.
func (d *Detector) Sample() Observation {
	cur := d.snapshot()
	var obs Observation
	// The max tie-breaks on the smaller link pair, so two equally busy
	// links report the same MaxLink whatever order Links() lists them.
	for i, l := range d.topo.Links() {
		k := [2]arch.DeviceID{l.A, l.B}
		delta := cur[i] - d.prev[i]
		obs.TotalTxns += delta
		tieButSmaller := delta == obs.MaxLinkTxns && delta > 0 &&
			(k[0] < obs.MaxLink[0] || (k[0] == obs.MaxLink[0] && k[1] < obs.MaxLink[1]))
		if delta > obs.MaxLinkTxns || tieButSmaller {
			obs.MaxLinkTxns = delta
			obs.MaxLink = k
		}
	}
	d.prev = cur
	if planes := d.planeSnapshot(); planes != nil {
		obs.PlaneTxns = make([]uint64, len(planes))
		for i, v := range planes {
			obs.PlaneTxns[i] = v - d.prevPlanes[i]
		}
		d.prevPlanes = planes
	}
	return obs
}

// Sampler periodically snapshots link counters from a monitor kernel
// while other workloads run, producing per-subwindow observations.
// Distinguishing sustained fine-grained probing (covert channel) from
// one-shot bulk transfers (benign peer traffic) requires exactly this
// time-resolved view: a burst lights up one subwindow, an attack
// lights up all of them.
type Sampler struct {
	det      *Detector
	interval arch.Cycles
	windows  []Observation
}

// NewSampler creates a sampler with the given subwindow length.
func NewSampler(topo *nvlink.Topology, interval arch.Cycles) *Sampler {
	return &Sampler{det: NewDetector(topo), interval: interval}
}

// Launch starts the sampling kernel on dev (an otherwise idle GPU —
// the defender owns the box). It snapshots every interval cycles
// until stop() reports true.
func (s *Sampler) Launch(m *sim.Machine, dev arch.DeviceID, seed uint64, stop func() bool) error {
	p, err := cudart.NewProcess(m, dev, seed)
	if err != nil {
		return err
	}
	ops := int(s.interval / arch.LatHeavyOp)
	return p.Launch("nvlink-sampler", 0, func(k *cudart.Kernel) {
		for !stop() {
			k.BusyHeavy(ops)
			k.Yield()
			s.windows = append(s.windows, s.det.Sample())
		}
	})
}

// Windows returns the recorded per-subwindow observations.
func (s *Sampler) Windows() []Observation { return s.windows }

// Interval returns the subwindow length.
func (s *Sampler) Interval() arch.Cycles { return s.interval }

// MedianMaxLinkRate returns the median per-subwindow busiest-link
// rate in transactions per Mcycle — the sustained-traffic statistic.
func (s *Sampler) MedianMaxLinkRate() float64 {
	if len(s.windows) == 0 {
		return 0
	}
	rates := make([]float64, len(s.windows))
	for i, w := range s.windows {
		rates[i] = RatePerMCycle(w.MaxLinkTxns, s.interval)
	}
	sort.Float64s(rates)
	return rates[len(rates)/2]
}

// PlaneMedianRates returns each switch plane's median per-subwindow
// rate in transactions per Mcycle, or nil when the sampled topology
// has no fabric (or no windows were recorded). The per-plane median is
// the localization statistic: a covert stream is pinned to one plane,
// so exactly that plane stays hot across subwindows.
func (s *Sampler) PlaneMedianRates() []float64 {
	if len(s.windows) == 0 || len(s.windows[0].PlaneTxns) == 0 {
		return nil
	}
	out := make([]float64, len(s.windows[0].PlaneTxns))
	rates := make([]float64, len(s.windows))
	for p := range out {
		for i, w := range s.windows {
			rates[i] = RatePerMCycle(w.PlaneTxns[p], s.interval)
		}
		sort.Float64s(rates)
		out[p] = rates[len(rates)/2]
	}
	return out
}

// localizeDominance is how many times hotter than the runner-up plane
// the busiest plane must be before the stream counts as pinned there.
const localizeDominance = 4.0

// LocalizePlane names the switch plane a sustained stream is pinned
// to: the plane with the highest median subwindow rate, provided that
// rate clears the detection threshold and dominates every other plane
// by localizeDominance. Returns (-1, 0) when no plane qualifies (no
// fabric, no sustained stream, or traffic spread across planes).
func (s *Sampler) LocalizePlane(thresholdPerMCycle float64) (plane int, rate float64) {
	med := s.PlaneMedianRates()
	best, second := -1, 0.0
	for p, r := range med {
		if best < 0 || r > med[best] {
			if best >= 0 {
				second = med[best]
			}
			best = p
		} else if r > second {
			second = r
		}
	}
	if best < 0 || med[best] <= thresholdPerMCycle || med[best] < localizeDominance*second {
		return -1, 0
	}
	return best, med[best]
}

// PeakMaxLinkRate returns the highest subwindow rate (what a naive
// burst-sensitive detector would alarm on).
func (s *Sampler) PeakMaxLinkRate() float64 {
	peak := 0.0
	for _, w := range s.windows {
		if r := RatePerMCycle(w.MaxLinkTxns, s.interval); r > peak {
			peak = r
		}
	}
	return peak
}

// RatePerMCycle converts a transaction count over a window length to
// transactions per million cycles, the detector's decision statistic.
func RatePerMCycle(txns uint64, window arch.Cycles) float64 {
	if window == 0 {
		return 0
	}
	return float64(txns) / (float64(window) / 1e6)
}

// Detect applies a threshold to the busiest link's rate: covert
// channels probe remote sets thousands of times per millisecond,
// orders of magnitude above benign peer traffic, which moves data in
// coarse bursts.
func Detect(obs Observation, window arch.Cycles, thresholdPerMCycle float64) bool {
	return RatePerMCycle(obs.MaxLinkTxns, window) > thresholdPerMCycle
}
