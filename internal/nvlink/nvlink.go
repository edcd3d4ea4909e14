// Package nvlink models the NVLink fabric of a multi-GPU box: the
// link graph (the DGX-1's hybrid cube-mesh, an NVSwitch-style
// all-to-all crossbar, or any custom graph), per-link latency and
// traffic counters, and the peer-visibility rule the paper observes
// ("NVidia runtime API throws error if the GPUs are not connected via
// NVLink") — on NVLink-V1/CUDA 10, peer access requires a *direct*
// link. NVSwitch boxes make every pair "direct", which is exactly how
// the DGX-2 profile removes the unconnected-pair error class.
//
// The Sec. VII defense study consumes the per-link traffic counters:
// a covert channel shows up as a sustained fine-grained remote-access
// stream on one link.
package nvlink

import (
	"errors"
	"fmt"

	"spybox/internal/arch"
)

// ErrNotConnected reports a Traverse between GPUs with no direct
// NVLink. A sentinel rather than a fmt.Errorf so the connectivity
// check costs nothing on the sim hot path (hotalloc-vetted); the sim
// panics on it with its own context, so the pair's identity is never
// consumed from the message.
//
//spylint:allow detrand sentinel error, assigned once at init and never mutated
var ErrNotConnected = errors.New("nvlink: source and destination GPUs are not connected by NVLink")

// Link is one bidirectional NVLink connection between two GPUs.
type Link struct {
	A, B arch.DeviceID

	// Traffic accounting, split by direction (A->B and B->A) and by
	// request/response role is overkill for the attacks; total
	// transactions and bytes suffice for the detector.
	Transactions uint64
	Bytes        uint64
}

// Topology is the static link graph of the box plus its counters.
// Switch-based boxes additionally carry a two-stage fabric (fabric.go)
// with per-plane counters and per-port contention state.
type Topology struct {
	links []*Link
	//spylint:allow resetcomplete the link graph is fixed at construction; CopyFrom copies counters, not wiring
	adj [][]*Link // numGPUs x numGPUs
	//spylint:allow resetcomplete the link graph is fixed at construction
	numGPUs int
	//spylint:allow resetcomplete hop latency is profile-derived, fixed at construction
	hopLat arch.Cycles // round-trip cost per traversal (flat path)
	fab    *fabric     // nil on point-to-point boxes
}

// newTopology allocates the adjacency for n GPUs with the default
// (P100-calibrated) hop latency.
func newTopology(n int) *Topology {
	t := &Topology{numGPUs: n, hopLat: arch.LatNVLinkHop, adj: make([][]*Link, n)}
	for i := range t.adj {
		t.adj[i] = make([]*Link, n)
	}
	return t
}

// DGX1 returns the NVLink-V1 hybrid cube-mesh of the Pascal DGX-1:
// GPUs {0,1,2,3} and {4,5,6,7} each form a fully connected quad, and
// the quads are joined by the four cube edges 0-4, 1-5, 2-6, 3-7.
// Each GPU has exactly four links, matching the P100.
func DGX1() *Topology {
	pairs := [][2]arch.DeviceID{
		// quad 0
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		// quad 1
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
		// cube edges
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
	}
	t := newTopology(arch.NumGPUs)
	for _, p := range pairs {
		t.addLink(p[0], p[1])
	}
	return t
}

// AllToAll returns an NVSwitch-style crossbar over n GPUs: every pair
// is one hop apart, so peer access never fails. Links are added in
// row-major (a < b) order so construction is deterministic.
func AllToAll(n int) (*Topology, error) {
	if n < 1 || n > arch.MaxGPUs {
		return nil, fmt.Errorf("nvlink: unsupported GPU count %d", n)
	}
	t := newTopology(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			t.addLink(arch.DeviceID(a), arch.DeviceID(b))
		}
	}
	return t, nil
}

// DGX2 returns the 16-GPU NVSwitch fabric of the Volta DGX-2 as the
// attacks see it: a full crossbar (the six physical switch planes are
// indistinguishable from user level — every pair is one hop).
func DGX2() *Topology {
	t, err := AllToAll(16)
	if err != nil {
		panic(err) // n=16 is always valid
	}
	return t
}

// FromProfile builds the link graph of an architecture profile and
// adopts the profile's hop latency.
func FromProfile(p arch.Profile) (*Topology, error) {
	var t *Topology
	switch p.Topology {
	case arch.TopoDGX1:
		if p.NumGPUs != arch.NumGPUs {
			return nil, fmt.Errorf("nvlink: the DGX-1 cube-mesh needs %d GPUs, profile %q has %d",
				arch.NumGPUs, p.Name, p.NumGPUs)
		}
		t = DGX1()
	case arch.TopoAllToAll:
		var err error
		t, err = AllToAll(p.NumGPUs)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("nvlink: profile %q has unknown topology kind %v", p.Name, p.Topology)
	}
	if p.Lat.NVLinkHop > 0 {
		t.hopLat = p.Lat.NVLinkHop
	}
	if p.Fabric.Enabled() {
		if p.Topology != arch.TopoAllToAll {
			return nil, fmt.Errorf("nvlink: profile %q: a switch-plane fabric requires an all-to-all topology", p.Name)
		}
		t.attachFabric(p.Fabric)
	}
	return t, nil
}

// NewCustom builds a topology over n GPUs with the given undirected
// links. Used by tests and by what-if experiments with other boxes.
func NewCustom(n int, pairs [][2]arch.DeviceID) (*Topology, error) {
	if n <= 0 || n > arch.MaxGPUs {
		return nil, fmt.Errorf("nvlink: unsupported GPU count %d", n)
	}
	t := newTopology(n)
	for _, p := range pairs {
		a, b := p[0], p[1]
		if int(a) >= n || int(b) >= n || a < 0 || b < 0 || a == b {
			return nil, fmt.Errorf("nvlink: bad link %v-%v", a, b)
		}
		if t.adj[a][b] != nil {
			return nil, fmt.Errorf("nvlink: duplicate link %v-%v", a, b)
		}
		t.addLink(a, b)
	}
	return t, nil
}

func (t *Topology) addLink(a, b arch.DeviceID) {
	l := &Link{A: a, B: b}
	t.links = append(t.links, l)
	t.adj[a][b] = l
	t.adj[b][a] = l
}

// CopyFrom copies src's link traffic counters and, on a switch fabric,
// its plane counters, port clocks and counters, pins and throttles
// onto t, which must have the same link graph and fabric. t keeps its
// own storage.
func (t *Topology) CopyFrom(src *Topology) {
	if t.numGPUs != src.numGPUs || len(t.links) != len(src.links) || (t.fab == nil) != (src.fab == nil) {
		panic("nvlink: CopyFrom across link graphs")
	}
	for i, l := range t.links {
		l.Transactions, l.Bytes = src.links[i].Transactions, src.links[i].Bytes
	}
	if t.fab != nil {
		t.fab.copyFrom(src.fab)
	}
}

// NumGPUs returns the number of GPUs in the topology.
func (t *Topology) NumGPUs() int { return t.numGPUs }

// HopLatency returns the round-trip cost charged per traversal.
func (t *Topology) HopLatency() arch.Cycles { return t.hopLat }

// Connected reports whether a and b share a direct NVLink.
func (t *Topology) Connected(a, b arch.DeviceID) bool {
	if a == b || a < 0 || b < 0 || int(a) >= t.numGPUs || int(b) >= t.numGPUs {
		return false
	}
	return t.adj[a][b] != nil
}

// LinkBetween returns the direct link between a and b, or nil.
func (t *Topology) LinkBetween(a, b arch.DeviceID) *Link {
	if !t.Connected(a, b) {
		return nil
	}
	return t.adj[a][b]
}

// Peers returns the GPUs directly linked to dev, in ascending order.
func (t *Topology) Peers(dev arch.DeviceID) []arch.DeviceID {
	var out []arch.DeviceID
	for i := 0; i < t.numGPUs; i++ {
		if t.adj[dev][i] != nil {
			out = append(out, arch.DeviceID(i))
		}
	}
	return out
}

// Links returns all links (shared slice; callers must not mutate
// beyond the counter fields).
func (t *Topology) Links() []*Link { return t.links }

// Traverse charges one remote transaction of the given payload bytes
// to the direct link between src and dst and returns the round-trip
// latency contribution. It returns an error if no direct link exists;
// the runtime surfaces this exactly like the CUDA peer-access error
// the paper mentions.
//
// On a switch fabric the transaction is additionally charged to its
// pinned plane and the latency is the two-stage traversal (egress +
// switch + ingress). Port queueing is not charged here — callers
// account a whole burst at once through ReserveBurst, so per-line
// latencies stay clean for timing classification while the backlog
// surfaces on the event's total.
func (t *Topology) Traverse(src, dst arch.DeviceID, payload int) (arch.Cycles, error) {
	l := t.LinkBetween(src, dst)
	if l == nil {
		return 0, ErrNotConnected
	}
	l.Transactions++
	l.Bytes += uint64(payload)
	if t.fab != nil {
		p := t.fab.planes[t.PlaneFor(src, dst)]
		p.Transactions++
		p.Bytes += uint64(payload)
		return t.fab.cfg.TraversalLat(), nil
	}
	return t.hopLat, nil
}

// ResetStats zeroes every link's, plane's, and port's traffic
// counters. Port service-slot times are simulation clock state, not
// statistics, and are left alone.
func (t *Topology) ResetStats() {
	for _, l := range t.links {
		l.Transactions, l.Bytes = 0, 0
	}
	if t.fab != nil {
		for _, p := range t.fab.planes {
			p.Transactions, p.Bytes = 0, 0
		}
		for _, ports := range [][][]*Port{t.fab.egress, t.fab.ingress} {
			for _, row := range ports {
				for _, p := range row {
					p.Bursts, p.Queued, p.QueueCycles = 0, 0, 0
				}
			}
		}
	}
}

// TotalTransactions sums transactions over all links.
func (t *Topology) TotalTransactions() uint64 {
	var n uint64
	for _, l := range t.links {
		n += l.Transactions
	}
	return n
}
