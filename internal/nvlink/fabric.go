// The two-stage NVSwitch fabric: on switch-based boxes (DGX-2, DGX
// A100) a remote transaction does not ride a direct GPU-to-GPU wire —
// it leaves through the source GPU's egress port, crosses one of the
// physical switch planes, and arrives through the destination GPU's
// ingress port. Modeling the planes and ports buys two things the flat
// hop charge cannot express:
//
//  1. Localization: each ordered GPU pair is pinned to one plane
//     ((src+dst) mod planes, the fixed route an address-interleaved
//     switch assigns a pair), so per-plane traffic counters let the
//     Sec. VII detector say *which plane* a covert stream rides.
//  2. Contention: every port has a fixed number of service slots and a
//     per-transaction service time; co-scheduled streams sharing a
//     port queue FIFO, and the wait surfaces as extra latency — the
//     backpressure that deflates covert bandwidth on a busy fabric.
//
// Uncontended traversals cost EgressLat+SwitchLat+IngressLat, which
// the named profiles keep equal to the old flat NVLinkHop: the fabric
// moves no timing cluster, it only adds queueing and attribution.
// Point-to-point topologies (the P100 DGX-1) never build a fabric and
// keep the pre-fabric path byte for byte.
package nvlink

import (
	"fmt"

	"spybox/internal/arch"
)

// Plane is one physical switch plane with its traffic counters. The
// Sec. VII defense consumes these the way it consumes per-link
// counters: a covert stream shows up as one sustained hot plane.
type Plane struct {
	ID           int
	Transactions uint64
	Bytes        uint64
}

// Port is one GPU-side fabric port (egress or ingress) on one plane.
// slots holds the time each service slot frees up; bursts take the
// earliest slot and wait when none is free.
type Port struct {
	slots []arch.Cycles

	// Bursts counts reservations serviced; Queued counts those that
	// had to wait; QueueCycles accumulates the total wait. Together
	// they give the contention profile fabricsweep reports.
	Bursts      uint64
	Queued      uint64
	QueueCycles arch.Cycles
}

// reserve books hold cycles of port occupancy for a burst arriving at
// now and returns how long the burst waited for a free slot.
func (p *Port) reserve(now, hold arch.Cycles) arch.Cycles {
	best := 0
	for i, free := range p.slots {
		if free < p.slots[best] {
			best = i
		}
	}
	start := now
	var wait arch.Cycles
	if p.slots[best] > now {
		start = p.slots[best]
		wait = start - now
		p.Queued++
		p.QueueCycles += wait
	}
	p.slots[best] = start + hold
	p.Bursts++
	return wait
}

// fabric is the switch-plane stage state attached to an all-to-all
// topology built from a fabric-enabled profile.
type fabric struct {
	//spylint:allow resetcomplete the fabric configuration is profile-derived, fixed at construction
	cfg     arch.FabricConfig
	planes  []*Plane
	egress  [][]*Port // [gpu][plane]
	ingress [][]*Port // [gpu][plane]

	// Runtime routing state, nil until first touched so the default
	// path stays byte-identical to a fabric without any overrides.
	// pin holds a per-ordered-pair plane override ([src*numGPUs+dst],
	// -1 = profile default route); throttle holds a per-plane service
	// multiplier (0 or 1 = full speed). Both express management
	// actions — an operator re-pinning a pair's route or derating one
	// plane's port service — and are cleared by ResetRouting.
	pin      []int
	throttle []int
}

// copyFrom copies src's counters, port state and runtime routing onto
// f, a fabric of the same configuration. A nil pin or throttle table
// stays nil, exactly as in src.
func (f *fabric) copyFrom(src *fabric) {
	for i, p := range f.planes {
		p.Transactions, p.Bytes = src.planes[i].Transactions, src.planes[i].Bytes
	}
	for g := range f.egress {
		for pl := range f.egress[g] {
			f.egress[g][pl].copyFrom(src.egress[g][pl])
			f.ingress[g][pl].copyFrom(src.ingress[g][pl])
		}
	}
	f.pin = copyInts(f.pin, src.pin)
	f.throttle = copyInts(f.throttle, src.throttle)
}

// copyInts returns a copy of src in dst's storage, or nil for a nil src.
func copyInts(dst, src []int) []int {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

// copyFrom copies src's slot clocks and counters onto p.
func (p *Port) copyFrom(src *Port) {
	copy(p.slots, src.slots)
	p.Bursts, p.Queued, p.QueueCycles = src.Bursts, src.Queued, src.QueueCycles
}

// ensurePins lazily allocates the pair-override table.
func (t *Topology) ensurePins() []int {
	if t.fab.pin == nil {
		t.fab.pin = make([]int, t.numGPUs*t.numGPUs)
		for i := range t.fab.pin {
			t.fab.pin[i] = -1
		}
	}
	return t.fab.pin
}

// PinPlane routes the unordered pair (a, b) over the given switch
// plane instead of its profile-default route, modeling the fabric
// manager reprogramming a route table. A negative plane restores the
// default route for the pair. Both actors use it: the defender re-pins
// benign victim traffic off a derated plane, the attacker hops its
// covert stream between planes.
func (t *Topology) PinPlane(a, b arch.DeviceID, plane int) error {
	if t.fab == nil {
		return fmt.Errorf("nvlink: PinPlane needs a switch fabric")
	}
	if a == b || a < 0 || b < 0 || int(a) >= t.numGPUs || int(b) >= t.numGPUs {
		return fmt.Errorf("nvlink: PinPlane: bad pair %v-%v", a, b)
	}
	if plane >= len(t.fab.planes) {
		return fmt.Errorf("nvlink: PinPlane: plane %d out of range (have %d)", plane, len(t.fab.planes))
	}
	if plane < 0 {
		plane = -1
	}
	pin := t.ensurePins()
	pin[int(a)*t.numGPUs+int(b)] = plane
	pin[int(b)*t.numGPUs+int(a)] = plane
	return nil
}

// ThrottlePlane derates one switch plane: every port reservation on it
// holds its service slot factor times longer, modeling the fabric
// manager reducing the plane's service rate. Factor <= 1 restores full
// speed.
func (t *Topology) ThrottlePlane(plane, factor int) error {
	if t.fab == nil {
		return fmt.Errorf("nvlink: ThrottlePlane needs a switch fabric")
	}
	if plane < 0 || plane >= len(t.fab.planes) {
		return fmt.Errorf("nvlink: ThrottlePlane: plane %d out of range (have %d)", plane, len(t.fab.planes))
	}
	if t.fab.throttle == nil {
		t.fab.throttle = make([]int, len(t.fab.planes))
	}
	if factor < 1 {
		factor = 1
	}
	t.fab.throttle[plane] = factor
	return nil
}

// PlaneThrottle returns the service multiplier active on plane
// (1 = full speed, also for planes never throttled or no fabric).
func (t *Topology) PlaneThrottle(plane int) int {
	if t.fab == nil || t.fab.throttle == nil || plane < 0 || plane >= len(t.fab.throttle) {
		return 1
	}
	if f := t.fab.throttle[plane]; f > 1 {
		return f
	}
	return 1
}

// ResetRouting clears every runtime pin and throttle, restoring the
// profile-default routes and full-speed planes. Machine.Reset calls it
// so pooled machines never leak one trial's management actions into
// the next.
func (t *Topology) ResetRouting() {
	if t.fab == nil {
		return
	}
	t.fab.pin = nil
	t.fab.throttle = nil
}

// attachFabric builds plane and port state for the topology.
func (t *Topology) attachFabric(cfg arch.FabricConfig) {
	f := &fabric{cfg: cfg}
	for i := 0; i < cfg.Planes; i++ {
		f.planes = append(f.planes, &Plane{ID: i})
	}
	newPorts := func() [][]*Port {
		ports := make([][]*Port, t.numGPUs)
		for g := range ports {
			ports[g] = make([]*Port, cfg.Planes)
			for pl := range ports[g] {
				ports[g][pl] = &Port{slots: make([]arch.Cycles, cfg.PortSlots)}
			}
		}
		return ports
	}
	f.egress, f.ingress = newPorts(), newPorts()
	t.fab = f
}

// HasFabric reports whether the topology models switch planes.
func (t *Topology) HasFabric() bool { return t.fab != nil }

// NumPlanes returns the switch-plane count (0 without a fabric).
func (t *Topology) NumPlanes() int {
	if t.fab == nil {
		return 0
	}
	return len(t.fab.planes)
}

// PlaneFor returns the switch plane the ordered pair (src, dst) is
// pinned to, or -1 on point-to-point fabrics; the rule itself lives on
// arch.FabricConfig so experiments and the topology can never disagree.
// A runtime PinPlane override for the pair takes precedence over the
// profile-default route.
func (t *Topology) PlaneFor(src, dst arch.DeviceID) int {
	if t.fab == nil {
		return -1
	}
	if t.fab.pin != nil && src >= 0 && dst >= 0 && int(src) < t.numGPUs && int(dst) < t.numGPUs {
		if p := t.fab.pin[int(src)*t.numGPUs+int(dst)]; p >= 0 {
			return p
		}
	}
	return t.fab.cfg.PlaneFor(src, dst)
}

// Planes returns the switch planes (shared slice; callers must not
// mutate beyond reading counters). Nil without a fabric.
func (t *Topology) Planes() []*Plane {
	if t.fab == nil {
		return nil
	}
	return t.fab.planes
}

// EgressPort returns dev's egress port on the given plane (nil without
// a fabric). Exposed for contention tests and experiment reporting.
func (t *Topology) EgressPort(dev arch.DeviceID, plane int) *Port {
	if t.fab == nil {
		return nil
	}
	return t.fab.egress[dev][plane]
}

// IngressPort returns dev's ingress port on the given plane.
func (t *Topology) IngressPort(dev arch.DeviceID, plane int) *Port {
	if t.fab == nil {
		return nil
	}
	return t.fab.ingress[dev][plane]
}

// TotalPlaneTransactions sums transactions over all planes. On a
// fabric topology it equals TotalTransactions: every traversal is
// charged to exactly one plane.
func (t *Topology) TotalPlaneTransactions() uint64 {
	var n uint64
	if t.fab == nil {
		return 0
	}
	for _, p := range t.fab.planes {
		n += p.Transactions
	}
	return n
}

// ResetPortClocks zeroes every port's service-slot times without
// touching the traffic statistics. Worker clocks are per-kernel (each
// launched kernel starts at cycle 0), so slot times are only
// comparable between kernels of one Machine.Run; the machine calls
// this at the start of every run so a long-finished kernel's backlog
// cannot stall the next run's fresh kernels.
func (t *Topology) ResetPortClocks() {
	if t.fab == nil {
		return
	}
	for _, ports := range [][][]*Port{t.fab.egress, t.fab.ingress} {
		for _, row := range ports {
			for _, p := range row {
				for i := range p.slots {
					p.slots[i] = 0
				}
			}
		}
	}
}

// ReserveBurst books port occupancy for n line transactions from src
// to dst arriving at now, and returns the FIFO queue delay the burst
// suffered at the two ports. Zero on point-to-point topologies, local
// traffic, and empty bursts.
//
// A burst (one warp-parallel probe or one streaming event) occupies
// the source's egress port and then — after the egress and switch
// stages — the destination's ingress port, each for n*PortService
// cycles. The caller charges the returned wait on top of the per-
// transaction traversal latency from Traverse.
func (t *Topology) ReserveBurst(src, dst arch.DeviceID, n int, now arch.Cycles) arch.Cycles {
	if t.fab == nil || n <= 0 || src == dst {
		return 0
	}
	f := t.fab
	plane := t.PlaneFor(src, dst)
	hold := arch.Cycles(n) * f.cfg.PortService * arch.Cycles(t.PlaneThrottle(plane))
	egWait := f.egress[src][plane].reserve(now, hold)
	// The burst reaches the ingress port after clearing egress
	// (including its wait) and crossing the switch plane.
	inNow := now + egWait + f.cfg.EgressLat + f.cfg.SwitchLat
	inWait := f.ingress[dst][plane].reserve(inNow, hold)
	return egWait + inWait
}
