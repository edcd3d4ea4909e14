// Package cudart is the CUDA-runtime-shaped user API over the
// simulator. Attack and victim code in this repository is written
// against this package the way the paper's code is written against
// CUDA 10: processes own contexts and virtual address spaces, memory
// is allocated on a chosen device, peer access must be enabled across
// NVLink before touching a remote GPU's memory, and kernels observe
// time through a per-block clock().
//
// A Process maps to one CUDA context owner. Allocating a buffer on a
// remote GPU does not create a context there — matching the paper's
// observation that trojan and spy keep separate contexts on their own
// GPUs while sharing only the home GPU's L2.
package cudart

import (
	"fmt"

	"spybox/internal/arch"
	"spybox/internal/sim"
	"spybox/internal/vmem"
	"spybox/internal/xrand"
)

// Process is one user process with a CUDA context on a specific GPU.
type Process struct {
	m     *sim.Machine
	pid   arch.ProcessID
	dev   arch.DeviceID
	space *vmem.Space
	rng   *xrand.Source
}

// NewProcess creates a process whose kernels run on dev. The seed
// determines this process's frame placement; the paper observes that
// placement is stable across runs for a fixed allocation size, which
// re-using a seed reproduces. Process IDs come from the machine
// (sim.Machine.AllocPID), so this package holds no cross-machine
// state and concurrent trials on separate machines never contend.
func NewProcess(m *sim.Machine, dev arch.DeviceID, seed uint64) (*Process, error) {
	if int(dev) >= m.NumGPUs() {
		return nil, fmt.Errorf("cudart: no such device %d", int(dev))
	}
	pid := m.AllocPID()
	rng := xrand.New(seed ^ 0x243f6a8885a308d3)
	return &Process{
		m:     m,
		pid:   pid,
		dev:   dev,
		space: vmem.NewSpaceFiltered(pid, m.Phys(), rng.Split(), m.FrameFilter(pid)),
		rng:   rng,
	}, nil
}

// MustNewProcess panics on error.
func MustNewProcess(m *sim.Machine, dev arch.DeviceID, seed uint64) *Process {
	p, err := NewProcess(m, dev, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// PID returns the process ID.
func (p *Process) PID() arch.ProcessID { return p.pid }

// Device returns the GPU hosting this process's kernels.
func (p *Process) Device() arch.DeviceID { return p.dev }

// Machine returns the box the process runs on.
func (p *Process) Machine() *sim.Machine { return p.m }

// RNG returns the process-private random source.
func (p *Process) RNG() *xrand.Source { return p.rng }

// Malloc allocates size bytes homed on the process's own GPU.
func (p *Process) Malloc(size uint64) (arch.VA, error) {
	return p.space.Alloc(size, p.dev)
}

// MallocOnDevice allocates size bytes homed on GPU dev. This is the
// attack's key primitive: the spy allocates its buffer on the *victim
// trojan's* GPU so that the two processes contend in that GPU's L2.
// Like the real API, accessing it later requires peer access if dev
// differs from the process's GPU.
func (p *Process) MallocOnDevice(dev arch.DeviceID, size uint64) (arch.VA, error) {
	if int(dev) >= p.m.NumGPUs() {
		return 0, fmt.Errorf("cudart: no such device %d", int(dev))
	}
	return p.space.Alloc(size, dev)
}

// Free releases an allocation.
func (p *Process) Free(base arch.VA) error { return p.space.Free(base) }

// EnablePeerAccess makes memory homed on dev accessible from this
// process's GPU. It returns the NVLink-connectivity error the paper
// mentions when no direct link exists.
func (p *Process) EnablePeerAccess(dev arch.DeviceID) error {
	return p.m.EnablePeer(p.dev, dev)
}

// WriteU64 writes a word from the host side (cudaMemcpy H2D of one
// word); no simulated device time is charged.
func (p *Process) WriteU64(va arch.VA, v uint64) { p.space.WriteU64(va, v) }

// ReadU64 reads a word from the host side.
func (p *Process) ReadU64(va arch.VA) uint64 { return p.space.ReadU64(va) }

// Translate exposes VA->PA resolution. Real user space cannot do
// this; it exists for tests and for ground-truth instrumentation in
// experiments, never for attack logic (grep for callers to audit).
func (p *Process) Translate(va arch.VA) (arch.PA, error) { return p.space.Translate(va) }

// BuildPointerChase writes a pointer-chase permutation into the buffer
// at base: word i*stride holds the byte offset of element order[i+1],
// so a kernel can traverse elements in the given order with data-
// dependent loads, exactly like the paper's Algorithm 1 buffer. order
// values are element indices; stride is in bytes (>= 8).
func (p *Process) BuildPointerChase(base arch.VA, order []int, stride int) {
	if stride < 8 {
		panic("cudart: pointer chase stride must hold a word")
	}
	for i, el := range order {
		next := order[(i+1)%len(order)]
		p.WriteU64(base+arch.VA(el*stride), uint64(next*stride))
	}
}

// KernelFunc is the body of a simulated kernel thread block.
type KernelFunc func(*Kernel)

// Kernel is the device-side view a kernel body gets: timing, dummy
// work, and L1-bypassing loads through the process's address space.
type Kernel struct {
	w *sim.Worker
	p *Process

	// pas is ProbeSet's grow-only translation scratch; probes run per
	// monitoring epoch and must not allocate.
	pas []arch.PA
}

// Launch starts a kernel of one thread block on the process's GPU.
// sharedMemBytes takes part in SM occupancy (Sec. VI). The kernel
// runs when Machine.Run is called.
func (p *Process) Launch(name string, sharedMemBytes int, body KernelFunc) error {
	return p.LaunchOn(p.dev, name, sharedMemBytes, body)
}

// LaunchOn starts a kernel on an explicit device (a process can drive
// several GPUs, as the noise-mitigation study does).
func (p *Process) LaunchOn(dev arch.DeviceID, name string, sharedMemBytes int, body KernelFunc) error {
	_, err := p.m.Spawn(dev, fmt.Sprintf("pid%d/%s", p.pid, name), sharedMemBytes, func(w *sim.Worker) {
		body(&Kernel{w: w, p: p})
	})
	return err
}

// Process returns the owning process.
func (k *Kernel) Process() *Process { return k.p }

// Device returns the GPU the kernel runs on.
func (k *Kernel) Device() arch.DeviceID { return k.w.Device() }

// Clock reads the per-block cycle counter (CUDA clock()).
func (k *Kernel) Clock() arch.Cycles { return k.w.Clock() }

// Now returns current cycles without clock-read overhead.
func (k *Kernel) Now() arch.Cycles { return k.w.Now() }

// Busy executes n dummy ALU ops.
func (k *Kernel) Busy(n int) { k.w.Busy(n) }

// BusyHeavy executes n heavy (trigonometric) dummy ops.
func (k *Kernel) BusyHeavy(n int) { k.w.BusyHeavy(n) }

// SharedWrite buffers one value in shared memory.
func (k *Kernel) SharedWrite() { k.w.SharedWrite() }

// Yield parks for one scheduling slot.
func (k *Kernel) Yield() { k.w.Yield() }

// LdCG performs an L1-bypassing load of the word at va, returning the
// value and the measured latency. This is the paper's ldcg()
// primitive; all attack loads go through it so nothing pollutes L1.
func (k *Kernel) LdCG(va arch.VA) (uint64, arch.Cycles) {
	pa, err := k.p.space.Translate(va)
	if err != nil {
		panic(err)
	}
	return k.w.LoadCG(pa)
}

// TouchCG moves va's line through the L2 without reading data.
func (k *Kernel) TouchCG(va arch.VA) arch.Cycles {
	pa, err := k.p.space.Translate(va)
	if err != nil {
		panic(err)
	}
	return k.w.TouchCG(pa)
}

// ProbeSet accesses all given addresses as one warp-parallel probe and
// returns per-line latencies plus the aggregate time. Like
// sim.Worker.ProbeLines, it overwrites dst from index 0 (growing it if
// needed) and returns the result; the caller owns it and should pass
// it back as the next probe's dst.
func (k *Kernel) ProbeSet(dst []arch.Cycles, vas []arch.VA) (lats []arch.Cycles, total arch.Cycles) {
	if cap(k.pas) < len(vas) {
		k.pas = make([]arch.PA, len(vas))
	}
	pas := k.pas[:len(vas)]
	for i, va := range vas {
		pa, err := k.p.space.Translate(va)
		if err != nil {
			panic(err)
		}
		pas[i] = pa
	}
	return k.w.ProbeLines(dst, pas)
}

// Stream touches count lines from va with the given byte stride as a
// streaming access (one event). The range must stay within one
// allocation; it is split at page boundaries internally because pages
// are physically scattered.
func (k *Kernel) Stream(va arch.VA, count, stride int) (misses int, total arch.Cycles) {
	if count <= 0 {
		return 0, 0
	}
	if stride <= 0 {
		stride = k.p.m.LineSize()
	}
	// Split the virtual range into physically contiguous runs.
	i := 0
	for i < count {
		start := va + arch.VA(i*stride)
		pa, err := k.p.space.Translate(start)
		if err != nil {
			panic(err)
		}
		// How many strides stay within this page?
		remain := int((arch.PageSize - start.PageOffset() + uint64(stride) - 1) / uint64(stride))
		if remain > count-i {
			remain = count - i
		}
		m, t := k.w.StreamRange(pa, remain, stride)
		misses += m
		total += t
		i += remain
	}
	return misses, total
}

// space accessor for sibling packages in this module.
func (p *Process) Space() *vmem.Space { return p.space }
