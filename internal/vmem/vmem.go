// Package vmem implements the unified virtual memory of the box:
// per-process virtual address spaces, 64 KB pages, and a machine-wide
// physical memory with a seeded *randomized* frame allocator.
//
// Randomized placement is load-bearing for the reproduction: the L2 is
// physically indexed, so an attacker that knew VA->PA could compute
// set indices directly. Because frames land in effectively arbitrary
// places (and the L2 additionally hashes frame bits), the attacker
// must *discover* eviction sets by timing, exactly as in the paper.
// The paper also observes that discovered sets stay valid across runs
// when the allocation size is unchanged; the allocator reproduces that
// by deriving placement deterministically from (process seed,
// allocation sequence), not from global machine state.
package vmem

import (
	"encoding/binary"
	"fmt"

	"spybox/internal/arch"
	"spybox/internal/xrand"
)

// FramesPerGPU is how many page frames each GPU's HBM window holds.
const FramesPerGPU = arch.HBMBytesPerGPU / arch.PageSize

// PhysMem is the machine-wide physical memory: frame occupancy per
// device plus lazily materialized backing bytes. Backing matters
// because the attacks pointer-chase through real data (each word holds
// the index of the next element).
type PhysMem struct {
	used    []map[uint64]bool // per device: frame-within-device -> taken
	backing map[uint64][]byte // machine frame number -> page bytes
	free    [][]byte          // recycled page buffers (see Reset/freeFrame)
}

// NewPhysMem returns an empty physical memory for a box of numGPUs
// devices (the machine profile's GPU count).
func NewPhysMem(numGPUs int) *PhysMem {
	p := &PhysMem{
		used:    make([]map[uint64]bool, numGPUs),
		backing: make(map[uint64][]byte),
	}
	for i := range p.used {
		p.used[i] = make(map[uint64]bool)
	}
	return p
}

// NumGPUs returns how many devices this physical memory spans.
func (p *PhysMem) NumGPUs() int { return len(p.used) }

// allocFrame claims a random free frame on dev that satisfies allow
// (nil means any frame), drawing from rng.
func (p *PhysMem) allocFrame(dev arch.DeviceID, rng *xrand.Source, allow func(uint64) bool) (arch.PA, error) {
	if dev < 0 || int(dev) >= len(p.used) {
		return 0, fmt.Errorf("vmem: no such device %d (box has %d GPUs)", int(dev), len(p.used))
	}
	taken := p.used[dev]
	if len(taken) >= FramesPerGPU {
		return 0, fmt.Errorf("vmem: %v HBM exhausted", dev)
	}
	for attempts := 0; attempts < FramesPerGPU*64; attempts++ {
		f := uint64(rng.Intn(FramesPerGPU))
		if !taken[f] && (allow == nil || allow(f)) {
			taken[f] = true
			return arch.MakePA(dev, f*arch.PageSize), nil
		}
	}
	return 0, fmt.Errorf("vmem: %v: no free frame satisfies the placement policy", dev)
}

// freeFrame releases the frame at base (a page-aligned PA). Its
// backing buffer, if materialized, goes to the recycle list.
func (p *PhysMem) freeFrame(base arch.PA) {
	dev, off := base.SplitPA()
	delete(p.used[dev], off/arch.PageSize)
	fn := base.FrameNumber()
	if b, ok := p.backing[fn]; ok {
		p.free = append(p.free, b)
		delete(p.backing, fn)
	}
}

// page returns the backing bytes for the frame containing pa,
// materializing a zero page on first touch (from the recycle list
// when possible — re-zeroed, so recycled pages are indistinguishable
// from fresh ones).
func (p *PhysMem) page(pa arch.PA) []byte {
	fn := pa.FrameNumber()
	b, ok := p.backing[fn]
	if !ok {
		if n := len(p.free); n > 0 {
			b = p.free[n-1]
			p.free = p.free[:n-1]
			clear(b)
		} else {
			b = make([]byte, arch.PageSize) //spylint:allow hotalloc first-touch page materialization; pooled machines recycle buffers, so steady-state trials never reach this branch
		}
		p.backing[fn] = b
	}
	return b
}

// Reset releases every frame and every mapping, returning the physical
// memory to its freshly constructed (empty) state. Backing buffers are
// kept on the recycle list so a pooled machine's next trial reuses
// them instead of reallocating.
func (p *PhysMem) Reset() {
	for i := range p.used {
		clear(p.used[i])
	}
	// The free list's order is unobservable: recycled buffers are
	// zeroed page by page on reuse (page() clears before handing out),
	// so which buffer backs which frame next trial cannot leak.
	//spylint:allow detrand recycle-list order is unobservable, buffers are zeroed on reuse
	for fn, b := range p.backing {
		p.free = append(p.free, b)
		delete(p.backing, fn)
	}
}

// ReadU64 reads the 8-byte word at pa.
func (p *PhysMem) ReadU64(pa arch.PA) uint64 {
	off := uint64(pa) % arch.PageSize
	if off+8 > arch.PageSize {
		panic("vmem: unaligned word straddles a page")
	}
	return binary.LittleEndian.Uint64(p.page(pa)[off:])
}

// WriteU64 writes the 8-byte word at pa.
func (p *PhysMem) WriteU64(pa arch.PA, v uint64) {
	off := uint64(pa) % arch.PageSize
	if off+8 > arch.PageSize {
		panic("vmem: unaligned word straddles a page")
	}
	binary.LittleEndian.PutUint64(p.page(pa)[off:], v)
}

// FramesInUse returns the number of allocated frames on dev.
func (p *PhysMem) FramesInUse(dev arch.DeviceID) int { return len(p.used[dev]) }

// Alloc describes one virtual allocation.
type Alloc struct {
	Base arch.VA
	Size uint64
	Dev  arch.DeviceID
}

// mappedBit marks a page-table entry as mapped. Frame bases are
// page-aligned, so bit 0 is free, and a zero entry means unmapped even
// for the frame at physical address 0.
const mappedBit arch.PA = 1

// Space is one process's virtual address space. Allocation bumps brk
// and never reuses virtual addresses, so the page table is a slice
// indexed by virtual page number, exactly brk/PageSize long.
type Space struct {
	pid    arch.ProcessID
	phys   *PhysMem
	rng    *xrand.Source
	allow  func(uint64) bool // frame placement policy, nil = any
	table  []arch.PA         // virtual page number -> frame base PA | mappedBit, 0 if unmapped
	mapped int               // mapped entries in table
	brk    arch.VA
	allocs []Alloc
}

// NewSpace creates an address space over phys. The rng governs frame
// placement for this process; seed it from the process seed so that
// re-running the same allocation sequence reproduces the same
// placement (the cross-run stability the paper reports).
func NewSpace(pid arch.ProcessID, phys *PhysMem, rng *xrand.Source) *Space {
	return NewSpaceFiltered(pid, phys, rng, nil)
}

// NewSpaceFiltered is NewSpace with a frame placement policy: every
// frame given to this space must satisfy allow. MIG-style L2/memory
// partitioning (Sec. VII) is modelled by confining each tenant's
// frames to a disjoint slice of the physical address space.
func NewSpaceFiltered(pid arch.ProcessID, phys *PhysMem, rng *xrand.Source, allow func(uint64) bool) *Space {
	return &Space{
		pid:   pid,
		phys:  phys,
		rng:   rng,
		allow: allow,
		table: make([]arch.PA, 1),
		brk:   arch.VA(arch.PageSize), // keep VA 0 unmapped
	}
}

// PID returns the owning process ID.
func (s *Space) PID() arch.ProcessID { return s.pid }

// Alloc maps size bytes of fresh virtual memory whose frames live on
// dev, returning the page-aligned base VA.
func (s *Space) Alloc(size uint64, dev arch.DeviceID) (arch.VA, error) {
	if size == 0 {
		return 0, fmt.Errorf("vmem: zero-size allocation")
	}
	if !dev.Valid() {
		return 0, fmt.Errorf("vmem: invalid device %d", int(dev))
	}
	pages := (size + arch.PageSize - 1) / arch.PageSize
	base := s.brk
	first := len(s.table) // base's page number
	for i := uint64(0); i < pages; i++ {
		frame, err := s.phys.allocFrame(dev, s.rng, s.allow)
		if err != nil {
			// Unwind partial mapping.
			for _, e := range s.table[first:] {
				s.phys.freeFrame(e &^ mappedBit)
			}
			s.table = s.table[:first]
			return 0, err
		}
		s.table = append(s.table, frame|mappedBit)
	}
	s.mapped += int(pages)
	s.brk += arch.VA(pages * arch.PageSize)
	s.allocs = append(s.allocs, Alloc{Base: base, Size: pages * arch.PageSize, Dev: dev})
	return base, nil
}

// Free unmaps the allocation starting at base. Only whole allocations
// can be freed, as with cudaFree.
func (s *Space) Free(base arch.VA) error {
	for i, a := range s.allocs {
		if a.Base == base {
			first := base.PageNumber()
			for vpn := first; vpn < first+a.Size/arch.PageSize; vpn++ {
				s.phys.freeFrame(s.table[vpn] &^ mappedBit)
				s.table[vpn] = 0
			}
			s.mapped -= int(a.Size / arch.PageSize)
			s.allocs = append(s.allocs[:i], s.allocs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("vmem: Free(%#x): no such allocation", uint64(base))
}

// Translate resolves a virtual address to its physical address.
func (s *Space) Translate(va arch.VA) (arch.PA, error) {
	if vpn := va.PageNumber(); vpn < uint64(len(s.table)) {
		if e := s.table[vpn]; e != 0 {
			return e&^mappedBit + arch.PA(va.PageOffset()), nil
		}
	}
	return 0, fmt.Errorf("vmem: pid %d: unmapped address %#x", s.pid, uint64(va))
}

// MustTranslate is Translate that panics on fault (the simulated
// equivalent of a device-side segfault).
func (s *Space) MustTranslate(va arch.VA) arch.PA {
	pa, err := s.Translate(va)
	if err != nil {
		panic(err)
	}
	return pa
}

// ReadU64 loads the word at va through the page table.
func (s *Space) ReadU64(va arch.VA) uint64 { return s.phys.ReadU64(s.MustTranslate(va)) }

// WriteU64 stores the word at va through the page table.
func (s *Space) WriteU64(va arch.VA, v uint64) { s.phys.WriteU64(s.MustTranslate(va), v) }

// Allocs returns a copy of the live allocations.
func (s *Space) Allocs() []Alloc {
	return append([]Alloc(nil), s.allocs...)
}

// MappedPages returns the number of mapped pages.
func (s *Space) MappedPages() int { return s.mapped }
