package nvlink

import (
	"fmt"
	"slices"
	"testing"

	"spybox/internal/arch"
	"spybox/internal/xrand"
)

// refPort is the deliberately naive reference for one fabric port: a
// list of busy-until times, one per service slot. A burst sorts the
// list, takes the earliest free slot, starts when both it and the slot
// are ready, and books the slot until it is done.
type refPort struct {
	busy           []arch.Cycles
	bursts, queued uint64
	queueCycles    arch.Cycles
}

func (p *refPort) take(now, hold arch.Cycles) arch.Cycles {
	slices.Sort(p.busy)
	start := max(now, p.busy[0])
	p.busy[0] = start + hold
	p.bursts++
	wait := start - now
	if wait > 0 {
		p.queued++
		p.queueCycles += wait
	}
	return wait
}

// refFabric routes with a map of unordered-pair pins over the
// (src+dst) mod planes default, and a map of plane throttles.
type refFabric struct {
	cfg             arch.FabricConfig
	gpus            int
	egress, ingress [][]*refPort // [gpu][plane]
	pins            map[[2]int]int
	throttle        map[int]int
}

func newRefFabric(cfg arch.FabricConfig, gpus int) *refFabric {
	r := &refFabric{cfg: cfg, gpus: gpus}
	newPorts := func() [][]*refPort {
		ports := make([][]*refPort, gpus)
		for g := range ports {
			for pl := 0; pl < cfg.Planes; pl++ {
				ports[g] = append(ports[g], &refPort{busy: make([]arch.Cycles, cfg.PortSlots)})
			}
		}
		return ports
	}
	r.egress, r.ingress = newPorts(), newPorts()
	r.resetRouting()
	return r
}

func pairKey(a, b int) [2]int { return [2]int{min(a, b), max(a, b)} }

func (r *refFabric) resetRouting() {
	r.pins, r.throttle = map[[2]int]int{}, map[int]int{}
}

func (r *refFabric) resetClocks() {
	for _, ports := range [][][]*refPort{r.egress, r.ingress} {
		for _, row := range ports {
			for _, p := range row {
				clear(p.busy)
			}
		}
	}
}

func (r *refFabric) pin(a, b, plane int) error {
	if a == b || a < 0 || b < 0 || a >= r.gpus || b >= r.gpus || plane >= r.cfg.Planes {
		return fmt.Errorf("bad pin")
	}
	if plane < 0 {
		delete(r.pins, pairKey(a, b))
	} else {
		r.pins[pairKey(a, b)] = plane
	}
	return nil
}

func (r *refFabric) throttlePlane(plane, factor int) error {
	if plane < 0 || plane >= r.cfg.Planes {
		return fmt.Errorf("bad plane")
	}
	r.throttle[plane] = max(factor, 1)
	return nil
}

func (r *refFabric) reserve(src, dst, n int, now arch.Cycles) arch.Cycles {
	if n <= 0 || src == dst {
		return 0
	}
	plane := (src + dst) % r.cfg.Planes
	if p, ok := r.pins[pairKey(src, dst)]; ok {
		plane = p
	}
	hold := arch.Cycles(n) * r.cfg.PortService * arch.Cycles(max(r.throttle[plane], 1))
	egWait := r.egress[src][plane].take(now, hold)
	inWait := r.ingress[dst][plane].take(now+egWait+r.cfg.EgressLat+r.cfg.SwitchLat, hold)
	return egWait + inWait
}

// TestReserveBurstMatchesNaiveReference drives ReserveBurst and the
// reference with the same random stream of bursts (arrival clocks that
// mostly advance but sometimes jump back, as per-kernel worker clocks
// do), route pins, plane throttles, routing resets and port-clock
// resets, and demands the same wait for every burst and the same
// per-port counters throughout.
func TestReserveBurstMatchesNaiveReference(t *testing.T) {
	profiles := []arch.Profile{arch.V100DGX2(), arch.A100Class()}
	// Wider ports than any shipped profile, so slot choice matters.
	wide := arch.V100DGX2()
	wide.Name = "v100-dgx2-3slot"
	wide.Fabric.PortSlots = 3
	profiles = append(profiles, wide)
	for pi, prof := range profiles {
		t.Run(prof.Name, func(t *testing.T) {
			topo, err := FromProfile(prof)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefFabric(prof.Fabric, prof.NumGPUs)
			stream := xrand.New(0xfab + uint64(pi))
			gpus, planes := prof.NumGPUs, prof.Fabric.Planes
			var clock arch.Cycles
			for op := 0; op < 20000; op++ {
				switch k := stream.Intn(100); {
				case k == 0:
					topo.ResetPortClocks()
					ref.resetClocks()
				case k == 1:
					topo.ResetRouting()
					ref.resetRouting()
				case k < 5:
					// One GPU and one plane out of range on each side,
					// so invalid pins are refused by both.
					a, b := stream.Intn(gpus+1), stream.Intn(gpus+1)
					plane := stream.Intn(planes+2) - 1
					got := topo.PinPlane(arch.DeviceID(a), arch.DeviceID(b), plane)
					want := ref.pin(a, b, plane)
					if (got == nil) != (want == nil) {
						t.Fatalf("op %d: PinPlane(%d, %d, %d) err = %v, reference err = %v", op, a, b, plane, got, want)
					}
				case k < 8:
					plane, factor := stream.Intn(planes+1), stream.Intn(5)
					got := topo.ThrottlePlane(plane, factor)
					want := ref.throttlePlane(plane, factor)
					if (got == nil) != (want == nil) {
						t.Fatalf("op %d: ThrottlePlane(%d, %d) err = %v, reference err = %v", op, plane, factor, got, want)
					}
				default:
					if stream.Intn(20) == 0 {
						clock -= min(clock, arch.Cycles(stream.Intn(4000)))
					} else {
						clock += arch.Cycles(stream.Intn(400))
					}
					src, dst, n := stream.Intn(gpus), stream.Intn(gpus), stream.Intn(9)
					got := topo.ReserveBurst(arch.DeviceID(src), arch.DeviceID(dst), n, clock)
					if want := ref.reserve(src, dst, n, clock); got != want {
						t.Fatalf("op %d: ReserveBurst(%d, %d, %d, %d) = %d, reference %d", op, src, dst, n, clock, got, want)
					}
				}
			}
			var queued uint64
			for g := 0; g < gpus; g++ {
				for pl := 0; pl < planes; pl++ {
					for _, side := range []struct {
						name string
						got  *Port
						want *refPort
					}{
						{"egress", topo.EgressPort(arch.DeviceID(g), pl), ref.egress[g][pl]},
						{"ingress", topo.IngressPort(arch.DeviceID(g), pl), ref.ingress[g][pl]},
					} {
						got, want := side.got, side.want
						if got.Bursts != want.bursts || got.Queued != want.queued || got.QueueCycles != want.queueCycles {
							t.Errorf("GPU%d plane %d %s: %d/%d/%d bursts/queued/queue cycles, reference %d/%d/%d",
								g, pl, side.name, got.Bursts, got.Queued, got.QueueCycles, want.bursts, want.queued, want.queueCycles)
						}
						queued += want.queued
					}
				}
			}
			if queued == 0 {
				t.Error("stream never queued a burst; it does not exercise contention")
			}
		})
	}
}
