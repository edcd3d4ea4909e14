// Package arch defines the shared architectural vocabulary for the
// simulated DGX-1 multi-GPU machine: address and cycle types, device
// identifiers, and the calibrated latency model used throughout the
// simulator.
//
// Every other package speaks in these types; arch itself depends on
// nothing, so it can be imported from anywhere without cycles.
package arch

import "fmt"

// Cycles counts GPU clock cycles. All simulated time is expressed in
// cycles of the (boost) SM clock.
type Cycles uint64

// PA is a physical address in the machine-wide physical address space.
// The top bits select the home GPU (the device whose HBM holds the
// frame); see SplitPA.
type PA uint64

// VA is a virtual address inside one process's address space.
type VA uint64

// DeviceID identifies one GPU in the box (0..NumGPUs-1).
type DeviceID int

// KernelID identifies a launched kernel within a machine run.
type KernelID int

// ProcessID identifies a process (a CUDA context owner).
type ProcessID int

// P100 / DGX-1 geometry, as reverse engineered by the paper (Table I)
// and the DGX-1 white paper. These constants are the values of the
// default p100-dgx1 profile (profile.go); machine-dependent code
// should read geometry from its Profile (or the constructed cache
// config) rather than from these.
const (
	// NumGPUs is the number of Tesla P100s in a DGX-1.
	NumGPUs = 8
	// NumSMs is the number of streaming multiprocessors per P100.
	NumSMs = 56
	// WarpSize is the number of lanes per warp.
	WarpSize = 32
	// SharedMemPerSM is the shared memory capacity per SM in bytes.
	SharedMemPerSM = 64 << 10
	// MaxSharedMemPerBlock is the per-thread-block shared memory cap
	// on Pascal (half the SM's capacity), which Sec. VI exploits for
	// occupancy blocking.
	MaxSharedMemPerBlock = 32 << 10
	// MaxBlocksPerSM is the per-SM resident thread block limit.
	MaxBlocksPerSM = 32

	// CacheLineSize is the L2 line size in bytes.
	CacheLineSize = 128
	// L2Sets is the number of L2 cache sets (Table I).
	L2Sets = 2048
	// L2Ways is the L2 associativity (Table I).
	L2Ways = 16
	// L2Size is the total L2 capacity: 2048 sets x 16 ways x 128 B = 4 MB.
	L2Size = L2Sets * L2Ways * CacheLineSize

	// PageSize is the GPU virtual memory page size (64 KB). One page
	// spans PageSize/CacheLineSize = 512 consecutive cache lines, and
	// therefore covers 512 consecutive cache sets: addresses within a
	// page index consecutively, which the paper's discovery
	// optimization relies on.
	PageSize = 64 << 10
	// LinesPerPage is the number of cache lines per page.
	LinesPerPage = PageSize / CacheLineSize

	// HBMBytesPerGPU is the simulated per-GPU HBM2 capacity. The real
	// P100 has 16 GB; the simulator models a 1 GB window per GPU,
	// which is far larger than any buffer the attacks use and keeps
	// frame bookkeeping cheap.
	HBMBytesPerGPU = 1 << 30

	// ClockHz is the P100 boost clock, the p100-dgx1 profile's
	// cycles-to-seconds rate (see Profile.Seconds).
	ClockHz = 1_480_000_000
)

// Latency model (cycles), calibrated against the paper's Fig. 4
// clusters and Fig. 10 signal levels; the fig4 and fig10 experiments
// (see EXPERIMENTS.md) reproduce both calibrations end to end.
const (
	// LatL2Hit is the cost of an L2 hit observed from the home GPU.
	LatL2Hit Cycles = 268
	// LatHBM is the additional cost of an L2 miss serviced by HBM.
	LatHBM Cycles = 172
	// LatNVLinkHop is the round-trip cost added per NVLink hop.
	LatNVLinkHop Cycles = 362
	// LatRemoteMissExtra is the extra serialization charged when a
	// remote access also misses in the home L2 (the returning fill
	// and the reply share the link).
	LatRemoteMissExtra Cycles = 148
	// LatSharedMem is the cost of a shared-memory access. Shared
	// memory is per-SM scratchpad and never touches L2, which is why
	// the attacks buffer timing samples there.
	LatSharedMem Cycles = 28
	// LatClockRead is the overhead of reading the cycle counter.
	LatClockRead Cycles = 4
	// LatALUOp is the cost charged for one dummy arithmetic op.
	LatALUOp Cycles = 2
	// LatHeavyOp is the cost of one "computationally heavy dummy
	// instruction" (the trigonometric busy-wait the trojan uses while
	// transmitting a '0').
	LatHeavyOp Cycles = 48

	// HitII is the initiation interval between warp-parallel L2 hits:
	// a warp probing n lines overlaps their latencies, paying the max
	// plus (n-1) issue slots.
	HitII Cycles = 10
	// MissII is the extra per-miss serialization within one
	// warp-parallel probe (HBM/port conflicts don't fully overlap).
	MissII Cycles = 36
)

// Derived nominal latencies for the four access classes (before
// jitter). These are what the reverse-engineering step rediscovers.
const (
	NomLocalHit   = LatL2Hit                                              // 268
	NomLocalMiss  = LatL2Hit + LatHBM                                     // 440
	NomRemoteHit  = LatL2Hit + LatNVLinkHop                               // 630
	NomRemoteMiss = LatL2Hit + LatNVLinkHop + LatHBM + LatRemoteMissExtra // 950
)

// Noise model defaults.
const (
	// JitterSigma is the baseline timing jitter standard deviation.
	JitterSigma = 6.0
	// ContentionSigmaPer is added to the jitter sigma per additional
	// concurrently active context on the same L2. This term is what
	// degrades the covert channel as more sets/blocks run in parallel
	// (Fig. 9) and under background noise (Sec. VI).
	ContentionSigmaPer = 14.0
)

// DeviceBits is the number of PA bits reserved for the device ID,
// sized for MaxGPUs (profiles range from the 8-GPU DGX-1 to 16-GPU
// NVSwitch boxes, with headroom).
const DeviceBits = 6

// deviceShift positions the device ID above the per-GPU offset space.
const deviceShift = 30 // log2(HBMBytesPerGPU)

// MakePA assembles a physical address from a device and a byte offset
// within that device's HBM.
func MakePA(dev DeviceID, off uint64) PA {
	if off >= HBMBytesPerGPU {
		panic(fmt.Sprintf("arch: HBM offset %#x out of range", off))
	}
	return PA(uint64(dev)<<deviceShift | off)
}

// SplitPA decomposes a physical address into its home device and the
// byte offset within that device's HBM.
func (pa PA) SplitPA() (DeviceID, uint64) {
	return DeviceID(uint64(pa) >> deviceShift), uint64(pa) & (HBMBytesPerGPU - 1)
}

// HomeDevice returns the GPU whose HBM holds this physical address.
// Per the paper's reverse engineering, this is also the GPU whose L2
// caches the line, regardless of which GPU issues the access.
func (pa PA) HomeDevice() DeviceID {
	d, _ := pa.SplitPA()
	return d
}

// LineAddr returns the address with the line-offset bits cleared.
func (pa PA) LineAddr() PA { return pa &^ (CacheLineSize - 1) }

// LineAddr returns the virtual address with line-offset bits cleared.
func (va VA) LineAddr() VA { return va &^ (CacheLineSize - 1) }

// PageNumber returns the virtual page number of the address.
func (va VA) PageNumber() uint64 { return uint64(va) / PageSize }

// PageOffset returns the byte offset within the page.
func (va VA) PageOffset() uint64 { return uint64(va) % PageSize }

// FrameNumber returns the physical frame number (machine-wide).
func (pa PA) FrameNumber() uint64 { return uint64(pa) / PageSize }

// String renders cycles with a unit suffix for logs.
func (c Cycles) String() string { return fmt.Sprintf("%dcy", uint64(c)) }

// String renders a device ID like "GPU3".
func (d DeviceID) String() string { return fmt.Sprintf("GPU%d", int(d)) }

// Valid reports whether the device ID can name a GPU in any supported
// box (it fits the PA encoding). Whether the device actually exists
// depends on the machine's profile; per-machine code checks against
// the real GPU count.
func (d DeviceID) Valid() bool { return d >= 0 && int(d) < MaxGPUs }
