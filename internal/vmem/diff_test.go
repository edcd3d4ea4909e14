package vmem

import (
	"fmt"
	"testing"

	"spybox/internal/arch"
	"spybox/internal/xrand"
)

// refSpace is the deliberately naive reference for Space: a map from
// virtual page number to frame base, filled and emptied page by page
// through the same frame allocator.
type refSpace struct {
	pid    arch.ProcessID
	phys   *PhysMem
	rng    *xrand.Source
	allow  func(uint64) bool
	table  map[uint64]arch.PA
	brk    arch.VA
	allocs map[arch.VA]uint64 // base -> pages
}

func newRefSpace(pid arch.ProcessID, phys *PhysMem, rng *xrand.Source, allow func(uint64) bool) *refSpace {
	return &refSpace{pid: pid, phys: phys, rng: rng, allow: allow,
		table: map[uint64]arch.PA{}, brk: arch.PageSize, allocs: map[arch.VA]uint64{}}
}

func (r *refSpace) alloc(size uint64, dev arch.DeviceID) (arch.VA, error) {
	if size == 0 {
		return 0, fmt.Errorf("vmem: zero-size allocation")
	}
	if !dev.Valid() {
		return 0, fmt.Errorf("vmem: invalid device %d", int(dev))
	}
	pages := (size + arch.PageSize - 1) / arch.PageSize
	base := r.brk
	for i := uint64(0); i < pages; i++ {
		frame, err := r.phys.allocFrame(dev, r.rng, r.allow)
		if err != nil {
			for j := uint64(0); j < i; j++ {
				vpn := base.PageNumber() + j
				r.phys.freeFrame(r.table[vpn])
				delete(r.table, vpn)
			}
			return 0, err
		}
		r.table[base.PageNumber()+i] = frame
	}
	r.brk += arch.VA(pages * arch.PageSize)
	r.allocs[base] = pages
	return base, nil
}

func (r *refSpace) free(base arch.VA) error {
	pages, ok := r.allocs[base]
	if !ok {
		return fmt.Errorf("vmem: Free(%#x): no such allocation", uint64(base))
	}
	for j := uint64(0); j < pages; j++ {
		vpn := base.PageNumber() + j
		r.phys.freeFrame(r.table[vpn])
		delete(r.table, vpn)
	}
	delete(r.allocs, base)
	return nil
}

func (r *refSpace) translate(va arch.VA) (arch.PA, error) {
	frame, ok := r.table[va.PageNumber()]
	if !ok {
		return 0, fmt.Errorf("vmem: pid %d: unmapped address %#x", r.pid, uint64(va))
	}
	return frame + arch.PA(va.PageOffset()), nil
}

// frameGate is a placement policy that admits only even frames and at
// most left of them, so a test can make a filtered space start
// rejecting every frame partway through an allocation.
type frameGate struct{ left int }

func (g *frameGate) allow(f uint64) bool {
	if f%2 != 0 || g.left == 0 {
		return false
	}
	g.left--
	return true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestSpaceMatchesMapReference drives Space and the map reference, each
// over its own physical memory with identically seeded placement, with
// one random stream of Alloc, Free and Translate calls, and demands the
// same result and error from every call and the same MappedPages and
// frame census after every step. Translations probe VA 0, live pages,
// freed holes, addresses past brk and wild addresses. In the filtered
// run the placement gate closes partway through some allocations, so
// the unwind path runs and must return every frame it took.
func TestSpaceMatchesMapReference(t *testing.T) {
	for _, filtered := range []bool{false, true} {
		t.Run(fmt.Sprintf("filtered=%v", filtered), func(t *testing.T) {
			const seed = 0x5bace
			gpus := arch.NumGPUs
			phys, refPhys := NewPhysMem(gpus), NewPhysMem(gpus)
			gate, refGate := &frameGate{left: -1}, &frameGate{left: -1}
			var s *Space
			var ref *refSpace
			if filtered {
				s = NewSpaceFiltered(3, phys, xrand.New(seed), gate.allow)
				ref = newRefSpace(3, refPhys, xrand.New(seed), refGate.allow)
			} else {
				s = NewSpace(3, phys, xrand.New(seed))
				ref = newRefSpace(3, refPhys, xrand.New(seed), nil)
			}
			stream := xrand.New(seed + 1)
			var bases []arch.VA // every base ever returned, live or freed
			unwinds := 0
			for op := 0; op < 3000; op++ {
				switch k := stream.Intn(10); {
				case k < 3:
					size := uint64(stream.Intn(5*arch.PageSize + 1))
					dev := arch.DeviceID(stream.Intn(gpus+2) - 1)
					closing := filtered && dev.Valid() && size > arch.PageSize && stream.Intn(100) == 0
					if closing {
						// Admit at least one frame but fewer than the
						// allocation needs.
						left := 1 + stream.Intn(int((size-1)/arch.PageSize))
						gate.left, refGate.left = left, left
					}
					got, err := s.Alloc(size, dev)
					want, wantErr := ref.alloc(size, dev)
					if got != want || !sameErr(err, wantErr) {
						t.Fatalf("op %d: Alloc(%d, %v) = %#x, %v; reference %#x, %v", op, size, dev, uint64(got), err, uint64(want), wantErr)
					}
					if err == nil {
						bases = append(bases, got)
					} else if closing {
						unwinds++
					}
					gate.left, refGate.left = -1, -1
				case k < 5:
					var base arch.VA
					if len(bases) > 0 && stream.Intn(4) != 0 {
						base = bases[stream.Intn(len(bases))]
					} else {
						base = arch.VA(stream.Intn(1 << 24))
					}
					if err, want := s.Free(base), ref.free(base); !sameErr(err, want) {
						t.Fatalf("op %d: Free(%#x) = %v; reference %v", op, uint64(base), err, want)
					}
				default:
					var va arch.VA
					switch stream.Intn(4) {
					case 0:
						va = arch.VA(stream.Intn(arch.PageSize))
					case 1:
						va = s.brk + arch.VA(stream.Intn(4*arch.PageSize))
					case 2:
						va = arch.VA(stream.Uint64() & (1<<40 - 1))
					default:
						va = arch.VA(stream.Intn(int(s.brk)))
					}
					got, err := s.Translate(va)
					want, wantErr := ref.translate(va)
					if got != want || !sameErr(err, wantErr) {
						t.Fatalf("op %d: Translate(%#x) = %#x, %v; reference %#x, %v", op, uint64(va), uint64(got), err, uint64(want), wantErr)
					}
				}
				if got, want := s.MappedPages(), len(ref.table); got != want {
					t.Fatalf("op %d: MappedPages = %d, reference %d", op, got, want)
				}
				for dev := arch.DeviceID(0); int(dev) < gpus; dev++ {
					if got, want := phys.FramesInUse(dev), refPhys.FramesInUse(dev); got != want {
						t.Fatalf("op %d: %v frames in use = %d, reference %d", op, dev, got, want)
					}
				}
			}
			if filtered && unwinds == 0 {
				t.Error("the placement gate never closed mid-allocation; the unwind path did not run")
			}
		})
	}
}
