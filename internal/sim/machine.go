// Machine assembly and the memory-event service path: this file is
// where the NUMA caching behaviour the paper reverse engineers
// actually lives (home-GPU L2 caching, NVLink traversal, contention-
// dependent jitter). The box shape and latency model come from an
// arch.Profile — the paper's P100 DGX-1 by default.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spybox/internal/arch"
	"spybox/internal/gpu"
	"spybox/internal/l2cache"
	"spybox/internal/nvlink"
	"spybox/internal/vmem"
	"spybox/internal/xrand"
)

// Options configure machine construction.
type Options struct {
	Seed uint64
	// Profile selects the architecture (GPU count, L2 geometry, SM
	// resources, latency model, topology family). nil means the
	// paper's machine, arch.P100DGX1(). Explicit CacheCfg / Topology
	// below override the corresponding profile-derived defaults.
	Profile  *arch.Profile
	CacheCfg l2cache.Config
	Topology *nvlink.Topology
	// NoiseOff disables all timing jitter; useful in unit tests that
	// assert exact latencies.
	NoiseOff bool
	// ContentionSigmaPer overrides arch.ContentionSigmaPer when > 0.
	ContentionSigmaPer float64
	// MIGPartitions, when > 1, enables a MIG-style isolation defense
	// (Sec. VII): the cache index hash is disabled and every process
	// is confined to the frames of one of N disjoint cache-set
	// partitions (process ID modulo N). Two tenants in different
	// partitions can then never contend in the L2, which is exactly
	// the property the paper says defeats these attacks — and which
	// the mig defense experiment demonstrates.
	MIGPartitions int
}

// Machine is the whole simulated multi-GPU box.
//
// Fields exempted from the resetcomplete check below are fixed by the
// Config at construction and shared by every trial a reused machine
// runs: a MachineSlot reuses a machine only for the same options
// fingerprint, so Reset(seed) rewinds state derived from the seed and
// leaves config-derived fields in place.
type Machine struct {
	//spylint:allow resetcomplete profile is part of the options fingerprint, identical across reuses
	prof    arch.Profile
	devices []*gpu.Device
	topo    *nvlink.Topology
	phys    *vmem.PhysMem

	eng    *engine
	jitter *xrand.Source
	root   *xrand.Source

	//spylint:allow resetcomplete latency model is config-derived, identical across reuses
	lat arch.LatencyModel
	// lineSize is the L2 line width in bytes, from the cache geometry.
	//spylint:allow resetcomplete geometry is config-derived, identical across reuses
	lineSize int
	//spylint:allow resetcomplete noise switch is part of the options fingerprint
	noiseOff bool
	// hasFabric gates burst tallying off the p100 hot path.
	//spylint:allow resetcomplete topology flag is config-derived, identical across reuses
	hasFabric bool
	//spylint:allow resetcomplete contention sigma is config-derived, identical across reuses
	contSigmaPer float64
	//spylint:allow resetcomplete MIG layout is part of the options fingerprint
	migPartitions int

	// peerEnabled[src][dst]: src may access memory homed on dst.
	peerEnabled [][]bool

	// Recent-accessor tracking per device for the contention noise
	// term. A compact slice, not a map: jitterFor runs on every single
	// line access, and at the handful of concurrently live workers an
	// attack runs, a linear stamp/count/prune pass does no hashing and
	// no per-access garbage.
	lastTouch []touchLog

	// jitterLevels[l] samples the jitter of an access with l other
	// live workers contending (see jitter.go). Spawn grows it to cover
	// every level the live workers can reach, so jitterFor only indexes.
	//spylint:allow resetcomplete each table is a pure function of the config-derived sigmas, so a reused machine's longer list draws the same values
	jitterLevels []jitterTable

	runMu sync.Mutex

	// pidCtr allocates process IDs for this machine (see AllocPID).
	pidCtr atomic.Int64
}

// contentionWindow is how many engine events back a worker still
// counts as "concurrently active" on an L2.
const contentionWindow = 96

// touchLog is one device's recent accessors, plus the result of the
// last stamp/count/prune pass over them. Within one event the worker,
// the event number and every done flag are fixed, so each further line
// of a probe or stream to the device would get the same count from the
// pass and change nothing: jitterFor reuses others while ev is the
// current event.
type touchLog struct {
	recs   []touchRec
	ev     uint64
	others int
}

// touchRec records one worker's most recent event on a device's L2.
// Holding the *Worker rather than its ID lets the liveness check read
// w.done directly.
type touchRec struct {
	w  *Worker
	ev uint64
}

// NewMachine builds a machine shaped by opts.Profile (the paper's
// P100 DGX-1 when nil). Zero-value fields of opts get profile
// defaults; an explicit CacheCfg or Topology overrides the profile's.
func NewMachine(opts Options) (*Machine, error) {
	prof := arch.P100DGX1()
	if opts.Profile != nil {
		prof = *opts.Profile
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if opts.CacheCfg == (l2cache.Config{}) {
		opts.CacheCfg = l2cache.FromProfile(prof)
	}
	if opts.Topology == nil {
		topo, err := nvlink.FromProfile(prof)
		if err != nil {
			return nil, err
		}
		opts.Topology = topo
	}
	if opts.MIGPartitions > 1 {
		// Partitioned instances address dedicated L2 banks directly;
		// the hash would smear partitions across each other.
		opts.CacheCfg.HashIndex = false
	}
	n := opts.Topology.NumGPUs()
	root := xrand.New(opts.Seed ^ 0x5b7a1e4c90d3f821)
	m := &Machine{
		prof:          prof,
		topo:          opts.Topology,
		phys:          vmem.NewPhysMem(n),
		eng:           &engine{},
		root:          root,
		jitter:        root.Split(),
		lat:           prof.Lat,
		lineSize:      opts.CacheCfg.LineSize,
		noiseOff:      opts.NoiseOff,
		hasFabric:     opts.Topology.HasFabric(),
		contSigmaPer:  prof.Lat.ContentionSigmaPer,
		migPartitions: opts.MIGPartitions,
	}
	if opts.ContentionSigmaPer > 0 {
		m.contSigmaPer = opts.ContentionSigmaPer
	}
	devCfg := gpu.FromProfile(prof)
	devCfg.Cache = opts.CacheCfg
	m.peerEnabled = make([][]bool, n)
	m.lastTouch = make([]touchLog, n)
	for i := 0; i < n; i++ {
		d, err := gpu.New(arch.DeviceID(i), devCfg, root.Split())
		if err != nil {
			return nil, err
		}
		m.devices = append(m.devices, d)
		m.peerEnabled[i] = make([]bool, n)
	}
	return m, nil
}

// Reset rewinds the machine to the state NewMachine would have built
// it in with the given seed, reusing every existing allocation: RNG
// streams are re-derived in construction order, caches flushed, HBM
// row buffers closed, physical memory emptied (page buffers recycled),
// fabric counters and port clocks cleared, peer access revoked, the
// contention tracker drained, and the PID counter rewound. A reset
// machine's runs are byte-identical to a fresh machine's — the golden
// tests pin this — which is what makes machine reuse observably invisible.
//
// Reset is only legal between Runs (no live workers); the engine
// panics otherwise.
func (m *Machine) Reset(seed uint64) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	m.eng.reset()
	// Replay NewMachine's derivation order exactly: root, then the
	// jitter stream, then one child per device.
	m.root.Reseed(seed ^ 0x5b7a1e4c90d3f821)
	m.jitter.ReseedFrom(m.root)
	m.phys.Reset()
	m.topo.ResetStats()
	m.topo.ResetPortClocks()
	m.topo.ResetRouting()
	for i, d := range m.devices {
		d.Reset(m.root)
		clear(m.peerEnabled[i])
		m.lastTouch[i] = touchLog{recs: m.lastTouch[i].recs[:0]}
	}
	m.pidCtr.Store(0)
}

// MustNewMachine panics on construction error (fixed configs).
func MustNewMachine(opts Options) *Machine {
	m, err := NewMachine(opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Device returns GPU dev.
func (m *Machine) Device(dev arch.DeviceID) *gpu.Device { return m.devices[dev] }

// Profile returns the architecture profile the machine was built from.
func (m *Machine) Profile() arch.Profile { return m.prof }

// LineSize returns the L2 line size the machine was built with (the
// cache geometry's, which an Options.CacheCfg override may have set
// independently of the profile).
func (m *Machine) LineSize() int { return m.lineSize }

// NumGPUs returns the number of GPUs in the box.
func (m *Machine) NumGPUs() int { return len(m.devices) }

// Topology returns the NVLink fabric.
func (m *Machine) Topology() *nvlink.Topology { return m.topo }

// Phys returns machine physical memory.
func (m *Machine) Phys() *vmem.PhysMem { return m.phys }

// Root returns the machine's root RNG; Split it for per-component
// streams rather than drawing from it directly.
func (m *Machine) Root() *xrand.Source { return m.root }

// AllocPID hands out this machine's next process ID. Atomic: trial
// workers build processes on distinct machines, but nothing stops two
// processes being created on one machine from different goroutines,
// and tying the counter to the machine (rather than a package-level
// map keyed by it) also lets finished machines be collected.
func (m *Machine) AllocPID() arch.ProcessID {
	return arch.ProcessID(m.pidCtr.Add(1) - 1)
}

// EnablePeer lets GPU src read memory homed on dst. Mirrors
// cudaDeviceEnablePeerAccess: it fails unless a direct NVLink
// connects the two, the behaviour the paper reports.
func (m *Machine) EnablePeer(src, dst arch.DeviceID) error {
	if src == dst {
		return nil
	}
	if !m.topo.Connected(src, dst) {
		return fmt.Errorf("sim: peer access %v->%v unavailable: %v and %v are not connected via NVLink",
			src, dst, src, dst)
	}
	m.peerEnabled[src][dst] = true
	return nil
}

// PeerEnabled reports whether src may access memory homed on dst.
func (m *Machine) PeerEnabled(src, dst arch.DeviceID) bool {
	if src == dst {
		return true
	}
	if src < 0 || dst < 0 || int(src) >= len(m.peerEnabled) || int(dst) >= len(m.peerEnabled) {
		return false
	}
	return m.peerEnabled[src][dst]
}

// FrameFilter returns the frame placement policy for a process under
// the machine's isolation configuration, or nil when placement is
// unrestricted. Under MIG-style partitioning, process pid may only
// receive frames whose cache region belongs to partition pid mod N,
// so tenants of different partitions can never share a cache set.
func (m *Machine) FrameFilter(pid arch.ProcessID) func(uint64) bool {
	if m.migPartitions <= 1 {
		return nil
	}
	cfg := m.devices[0].L2().Config()
	regions := cfg.Sets / cfg.LinesPerPage()
	if regions < m.migPartitions {
		regions = m.migPartitions
	}
	part := int(pid) % m.migPartitions
	perPart := regions / m.migPartitions
	lo, hi := part*perPart, (part+1)*perPart
	return func(frame uint64) bool {
		r := int(frame % uint64(regions))
		return r >= lo && r < hi
	}
}

// MIGPartitions reports the configured partition count (0 or 1 means
// partitioning is off).
func (m *Machine) MIGPartitions() int { return m.migPartitions }

// opKind distinguishes event request types.
type opKind int

const (
	opLoad opKind = iota
	opProbe
	opStream
	opYield
)

// request is one shared-hardware event. Each Worker embeds exactly one
// and reuses it for every op it issues: the event loop is fully
// serialized, so a request is only ever live between one yield and the
// matching service, and reuse keeps the hot path allocation-free.
type request struct {
	kind opKind

	// opLoad
	pa       arch.PA
	loadData bool

	// opProbe: per-line latencies land in lats, the caller's buffer
	pas  []arch.PA
	lats []arch.Cycles

	// opStream
	base   arch.PA
	count  int
	stride int

	// results
	value   uint64
	lat     arch.Cycles
	misses  int
	touched []int // set indices touched (opStream, optional)
}

// Worker is one simulated thread block's execution context.
type Worker struct {
	eng     *engine
	m       *Machine
	co      *coro // runs the body; nil once it has returned
	id      int
	name    string
	dev     arch.DeviceID
	clock   arch.Cycles
	done    bool // the body returned
	heapIdx int  // position in the engine's parked heap, or noHeapIdx

	pending *request
	res     *gpu.BlockReservation

	// req is the worker's reusable event record (see request); bursts
	// is service-side fabric-burst scratch, likewise grow-only.
	req    request
	bursts []homeBurst
}

// Spawn creates a worker (one simulated thread block) on dev running
// body. sharedMemBytes participates in SM occupancy; pass 0 when the
// kernel does not use shared memory for anything the scheduler should
// know about.
func (m *Machine) Spawn(dev arch.DeviceID, name string, sharedMemBytes int, body func(*Worker)) (*Worker, error) {
	if int(dev) >= len(m.devices) {
		return nil, fmt.Errorf("sim: no such device %d", int(dev))
	}
	res, err := m.devices[dev].PlaceBlock(sharedMemBytes)
	if err != nil {
		return nil, err
	}
	w := &Worker{m: m, eng: m.eng, dev: dev, name: name, res: res}
	m.eng.register(w, func() {
		defer w.res.Release()
		body(w)
	})
	// An access's others are live workers, all parked now but for the
	// spawner during a run, each with its own event among the last
	// contentionWindow; so neither count can be exceeded.
	m.growJitterLevels(min(m.eng.parked.len(), contentionWindow))
	return w, nil
}

// Run drives the machine until every spawned worker finishes. It is
// the host-side synchronization point (cudaDeviceSynchronize across
// the whole box), and a kernel's panic — its own, or a device fault
// raised while servicing its events — is re-raised here. Fabric port
// clocks reset per run: kernel clocks all start at zero, so backlog
// left by a previous run's kernels (whose clocks ran far ahead) would
// otherwise stall this run's first bursts for phantom cycles.
func (m *Machine) Run() {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	m.topo.ResetPortClocks()
	m.eng.runAll()
}

// --- Worker-facing operations (called from kernel coroutines) ---

// Name returns the worker's debug name.
func (w *Worker) Name() string { return w.name }

// Device returns the GPU the worker runs on.
func (w *Worker) Device() arch.DeviceID { return w.dev }

// Clock reads the cycle counter, charging the read overhead, like the
// CUDA clock() intrinsic.
func (w *Worker) Clock() arch.Cycles {
	w.clock += w.m.lat.ClockRead
	return w.clock
}

// Now returns the current cycle without measurement overhead (host /
// instrumentation use; attack code should use Clock).
func (w *Worker) Now() arch.Cycles { return w.clock }

// Busy advances the worker's clock by n dummy ALU operations.
func (w *Worker) Busy(n int) {
	w.clock += arch.Cycles(n) * w.m.lat.ALUOp
}

// BusyHeavy advances the clock by n "computationally heavy dummy
// instructions" — the trigonometric busy-wait the trojan uses while
// transmitting a '0'.
func (w *Worker) BusyHeavy(n int) {
	w.clock += arch.Cycles(n) * w.m.lat.HeavyOp
}

// SharedWrite models buffering a value in on-SM shared memory (the
// attacks record timing samples there to keep the measurement path
// off the L2).
func (w *Worker) SharedWrite() {
	w.clock += w.m.lat.SharedMem
}

// LoadCG performs an L1-bypassing cached load (__ldcg) of the 8-byte
// word at physical address pa, returning the loaded value and the
// access latency. One engine event.
func (w *Worker) LoadCG(pa arch.PA) (uint64, arch.Cycles) {
	req := &w.req
	req.kind = opLoad
	req.pa = pa
	req.loadData = true
	w.yield(req)
	return req.value, req.lat
}

// TouchCG is LoadCG without data (for kernels that only shape cache
// state); it still moves the line through the L2.
func (w *Worker) TouchCG(pa arch.PA) arch.Cycles {
	req := &w.req
	req.kind = opLoad
	req.pa = pa
	req.loadData = false
	w.yield(req)
	return req.lat
}

// ProbeLines accesses every line in pas as one warp-parallel probe:
// per-line latencies are measured individually, and the aggregate
// charge models memory-level parallelism (max latency plus issue
// intervals plus per-miss serialization). One engine event.
//
// The per-line latencies overwrite dst from index 0, in the manner of
// strconv's Append functions: lats is dst[:0] extended by len(pas)
// entries, growing dst only when it is too small. The caller owns lats;
// passing it back as the next probe's dst keeps probing allocation-free.
func (w *Worker) ProbeLines(dst []arch.Cycles, pas []arch.PA) (lats []arch.Cycles, total arch.Cycles) {
	if cap(dst) < len(pas) {
		dst = make([]arch.Cycles, len(pas))
	}
	lats = dst[:len(pas)]
	req := &w.req
	req.kind = opProbe
	req.pas, req.lats = pas, lats
	w.yield(req)
	req.pas, req.lats = nil, nil
	return lats, req.lat
}

// StreamRange touches count lines starting at physical address base
// with the given byte stride, as a streaming warp would. It returns
// the number of L2 misses and the total cycles charged. One engine
// event regardless of count, which keeps large victim workloads cheap
// to simulate.
func (w *Worker) StreamRange(base arch.PA, count, stride int) (misses int, total arch.Cycles) {
	req := &w.req
	req.kind = opStream
	req.base = base
	req.count = count
	req.stride = stride
	w.yield(req)
	return req.misses, req.lat
}

// Yield parks the worker for one no-op event, letting equal-clock
// peers run. Rarely needed; spin loops that contain real events never
// starve anyone.
func (w *Worker) Yield() {
	w.req.kind = opYield
	w.yield(&w.req)
}

// --- Event service (baton holder) ---

// homeBurst tallies one event's remote lines per home device so the
// whole event can reserve fabric ports as a single burst. Almost every
// event touches at most one remote home, so a tiny ordered slice beats
// a map and keeps iteration deterministic.
type homeBurst struct {
	dev arch.DeviceID
	n   int
}

// addBurst counts one remote line bound for dev.
func addBurst(list []homeBurst, dev arch.DeviceID) []homeBurst {
	for i := range list {
		if list[i].dev == dev {
			list[i].n++
			return list
		}
	}
	return append(list, homeBurst{dev: dev, n: 1})
}

// reserveBursts books switch-fabric port occupancy for the event's
// remote lines (arriving at the worker's current clock) and returns
// the total FIFO queue delay. Zero on point-to-point boxes, so the
// P100 path is untouched.
func (m *Machine) reserveBursts(w *Worker, bursts []homeBurst) arch.Cycles {
	var wait arch.Cycles
	for _, b := range bursts {
		wait += m.topo.ReserveBurst(w.dev, b.dev, b.n, w.clock)
	}
	return wait
}

// service applies one request to shared hardware state.
//
//spylint:hotpath
func (m *Machine) service(w *Worker, req *request) {
	switch req.kind {
	case opYield:
		// no-op: the park/resume itself is the point
	case opLoad:
		lat, _ := m.accessLine(w, req.pa)
		if home := req.pa.HomeDevice(); m.hasFabric && home != w.dev {
			// A single load observes its own port backlog directly.
			lat += m.topo.ReserveBurst(w.dev, home, 1, w.clock)
		}
		if req.loadData {
			req.value = m.phys.ReadU64(req.pa)
		}
		req.lat = lat
		w.clock += lat
	case opProbe:
		var maxLat arch.Cycles
		bursts := w.bursts[:0]
		misses := 0
		for i, pa := range req.pas {
			lat, hit := m.accessLine(w, pa)
			req.lats[i] = lat
			if !hit {
				misses++
			}
			if lat > maxLat {
				maxLat = lat
			}
			if home := pa.HomeDevice(); m.hasFabric && home != w.dev {
				bursts = addBurst(bursts, home)
			}
		}
		total := maxLat
		if n := len(req.pas); n > 1 {
			total += arch.Cycles(n-1) * m.lat.HitII
		}
		total += arch.Cycles(misses) * m.lat.MissII
		// The warp's remote lines cross the fabric as one burst: the
		// port backlog delays the probe as a whole, never one line's
		// measured latency — classification stays clean under load.
		total += m.reserveBursts(w, bursts)
		w.bursts = bursts
		req.misses = misses
		req.lat = total
		w.clock += total
	case opStream:
		var total arch.Cycles
		bursts := w.bursts[:0]
		misses := 0
		for i := 0; i < req.count; i++ {
			pa := req.base + arch.PA(i*req.stride)
			lat, hit := m.accessLine(w, pa)
			if !hit {
				misses++
			}
			// Streaming warps overlap almost everything; charge the
			// issue interval per line plus full latency for the first.
			if i == 0 {
				total += lat
			} else {
				total += m.lat.HitII
				if !hit {
					total += m.lat.MissII
				}
			}
			if home := pa.HomeDevice(); m.hasFabric && home != w.dev {
				bursts = addBurst(bursts, home)
			}
		}
		// One streaming event is one fabric burst; its port occupancy
		// is what backpressures co-scheduled streams on the same plane.
		total += m.reserveBursts(w, bursts)
		w.bursts = bursts
		req.misses = misses
		req.lat = total
		w.clock += total
	}
}

// accessLine performs the NUMA L2 access for one line and returns its
// latency and hit status. This is the mechanism the whole paper rests
// on: the line is cached in the L2 of the GPU that *homes* the
// physical page, never the requester's.
func (m *Machine) accessLine(w *Worker, pa arch.PA) (arch.Cycles, bool) {
	home := pa.HomeDevice()
	remote := home != w.dev
	if remote && !m.PeerEnabled(w.dev, home) {
		panic(fmt.Sprintf("sim: worker %q on %v accessed %v memory without peer access",
			w.name, w.dev, home))
	}
	hit, _ := m.devices[home].L2().Access(pa &^ arch.PA(m.lineSize-1))
	lat := m.lat.L2Hit
	if !hit {
		lat += m.devices[home].HBM().ReadLine(pa)
	}
	if remote {
		hop, err := m.topo.Traverse(w.dev, home, m.lineSize)
		if err != nil {
			// ErrNotConnected carries no pair identity (it is a
			// sentinel so Traverse never allocates); add it here.
			panic(fmt.Sprintf("sim: %v -> %v: %v", w.dev, home, err))
		}
		lat += hop
		if !hit {
			lat += m.lat.RemoteMissExtra
		}
	}
	lat += m.jitterFor(w, home)
	return lat, hit
}

// jitterFor samples the timing noise for an access by worker w to the
// L2 of device home. Noise grows with the number of other workers
// recently active on the same L2 — the port/bank contention that
// drives the Fig. 9 error-rate curve.
func (m *Machine) jitterFor(w *Worker, home arch.DeviceID) arch.Cycles {
	// One linear pass over the device's recent accessors per event:
	// stamp w, count live others within the window, and compact stale
	// records out in place. No hashing, no map churn. Events are
	// numbered from 1, so a zero touchLog never matches.
	now := m.eng.eventNo
	t := &m.lastTouch[home]
	if t.ev != now {
		kept := t.recs[:0]
		others := 0
		stamped := false
		for _, r := range t.recs {
			if r.w == w {
				r.ev = now
				stamped = true
			} else if r.w.done || now-r.ev > contentionWindow {
				// Only live workers within the recency window count: a
				// worker from a finished kernel cannot contend for ports.
				continue
			} else {
				others++
			}
			kept = append(kept, r)
		}
		if !stamped {
			kept = append(kept, touchRec{w: w, ev: now})
		}
		t.recs, t.ev, t.others = kept, now, others
	}
	if m.noiseOff {
		return 0
	}
	// The law of N(0, JitterSigma + contSigmaPer·others) with its
	// negative tail folded to -j/2 — latencies have a hard floor, so the
	// mean stays near nominal but dispersion is preserved — rounded to
	// whole cycles.
	return m.jitterLevels[t.others].draw(m.jitter.Uint64())
}
