package cudart

import (
	"testing"

	"spybox/internal/arch"
	"spybox/internal/sim"
)

func quietMachine(seed uint64) *sim.Machine {
	return sim.MustNewMachine(sim.Options{Seed: seed, NoiseOff: true})
}

func TestProcessLifecycle(t *testing.T) {
	m := quietMachine(1)
	p1 := MustNewProcess(m, 0, 100)
	p2 := MustNewProcess(m, 1, 200)
	if p1.PID() == p2.PID() {
		t.Error("PIDs collide")
	}
	if p1.Device() != 0 || p2.Device() != 1 {
		t.Error("device binding wrong")
	}
	if _, err := NewProcess(m, arch.DeviceID(99), 1); err == nil {
		t.Error("bad device accepted")
	}
}

func TestMallocHoming(t *testing.T) {
	m := quietMachine(2)
	p := MustNewProcess(m, 1, 7)
	local, err := p.Malloc(arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := p.Translate(local)
	if pa.HomeDevice() != 1 {
		t.Errorf("Malloc homed on %v, want GPU1", pa.HomeDevice())
	}
	remote, err := p.MallocOnDevice(0, arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ = p.Translate(remote)
	if pa.HomeDevice() != 0 {
		t.Errorf("MallocOnDevice homed on %v, want GPU0", pa.HomeDevice())
	}
	if _, err := p.MallocOnDevice(arch.DeviceID(50), 1); err == nil {
		t.Error("MallocOnDevice on missing GPU accepted")
	}
}

func TestHostReadWrite(t *testing.T) {
	m := quietMachine(3)
	p := MustNewProcess(m, 0, 1)
	buf, _ := p.Malloc(4096)
	p.WriteU64(buf+16, 99)
	if got := p.ReadU64(buf + 16); got != 99 {
		t.Errorf("ReadU64 = %d", got)
	}
}

func TestKernelLdCGTimingAndData(t *testing.T) {
	m := quietMachine(4)
	p := MustNewProcess(m, 0, 2)
	buf, _ := p.Malloc(4096)
	p.WriteU64(buf, 0xabcdef)
	var v1, v2 uint64
	var lat1, lat2 arch.Cycles
	p.Launch("k", 0, func(k *Kernel) {
		v1, lat1 = k.LdCG(buf)
		v2, lat2 = k.LdCG(buf)
	})
	m.Run()
	if v1 != 0xabcdef || v2 != 0xabcdef {
		t.Errorf("loaded %#x/%#x", v1, v2)
	}
	if lat1 != arch.NomLocalMiss || lat2 != arch.NomLocalHit {
		t.Errorf("latencies %v/%v, want %v/%v", lat1, lat2, arch.NomLocalMiss, arch.NomLocalHit)
	}
}

func TestRemoteAllocationNeedsPeerAccess(t *testing.T) {
	m := quietMachine(5)
	spy := MustNewProcess(m, 1, 3)
	remoteBuf, _ := spy.MallocOnDevice(0, 4096)

	// Peer access to a non-NVLink-connected GPU fails like CUDA does.
	if err := spy.EnablePeerAccess(6); err == nil {
		t.Fatal("EnablePeerAccess(GPU6) from GPU1 should fail (no direct link)")
	}
	if err := spy.EnablePeerAccess(0); err != nil {
		t.Fatal(err)
	}
	var lat arch.Cycles
	spy.Launch("remote", 0, func(k *Kernel) {
		lat = k.TouchCG(remoteBuf)
	})
	m.Run()
	if lat != arch.NomRemoteMiss {
		t.Errorf("remote cold access = %v, want %v", lat, arch.NomRemoteMiss)
	}
}

func TestBuildPointerChase(t *testing.T) {
	m := quietMachine(6)
	p := MustNewProcess(m, 0, 4)
	buf, _ := p.Malloc(arch.PageSize)
	order := []int{0, 3, 1, 2}
	p.BuildPointerChase(buf, order, arch.CacheLineSize)

	// Chase through the buffer on-device and verify the traversal
	// visits elements in the intended order.
	var visited []uint64
	p.Launch("chase", 0, func(k *Kernel) {
		idx := uint64(order[0] * arch.CacheLineSize)
		for i := 0; i < len(order); i++ {
			visited = append(visited, idx)
			next, _ := k.LdCG(buf + arch.VA(idx))
			idx = next
		}
	})
	m.Run()
	want := []uint64{0, 3 * 128, 1 * 128, 2 * 128}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited[%d] = %d, want %d", i, visited[i], want[i])
		}
	}
}

func TestPointerChaseStrideValidation(t *testing.T) {
	m := quietMachine(7)
	p := MustNewProcess(m, 0, 5)
	buf, _ := p.Malloc(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("stride < 8 accepted")
		}
	}()
	p.BuildPointerChase(buf, []int{0, 1}, 4)
}

func TestStreamCrossesPages(t *testing.T) {
	// A stream spanning multiple (physically scattered) pages must
	// touch every line exactly once: miss count equals line count on
	// a cold cache.
	m := quietMachine(8)
	p := MustNewProcess(m, 0, 6)
	const pages = 3
	buf, _ := p.Malloc(pages * arch.PageSize)
	lines := pages * arch.LinesPerPage
	var misses int
	p.Launch("stream", 0, func(k *Kernel) {
		misses, _ = k.Stream(buf, lines, arch.CacheLineSize)
	})
	m.Run()
	if misses != lines {
		t.Errorf("cold cross-page stream misses = %d, want %d", misses, lines)
	}
}

func TestStreamDegenerateArgs(t *testing.T) {
	m := quietMachine(9)
	p := MustNewProcess(m, 0, 7)
	buf, _ := p.Malloc(4096)
	var misses int
	var total arch.Cycles
	p.Launch("degenerate", 0, func(k *Kernel) {
		misses, total = k.Stream(buf, 0, 128)
		if misses != 0 || total != 0 {
			t.Error("zero-count stream should be free")
		}
		// Zero stride defaults to line size.
		misses, total = k.Stream(buf, 4, 0)
	})
	m.Run()
	if misses != 4 {
		t.Errorf("default-stride stream misses = %d, want 4", misses)
	}
}

func TestProbeSetTranslatesAll(t *testing.T) {
	m := quietMachine(10)
	p := MustNewProcess(m, 0, 8)
	buf, _ := p.Malloc(arch.PageSize)
	vas := []arch.VA{buf, buf + 128, buf + 256}
	var lats []arch.Cycles
	p.Launch("probe", 0, func(k *Kernel) {
		lats, _ = k.ProbeSet(nil, vas)
	})
	m.Run()
	if len(lats) != 3 {
		t.Fatalf("lats = %v", lats)
	}
}

func TestLaunchOnOtherDevice(t *testing.T) {
	m := quietMachine(11)
	p := MustNewProcess(m, 0, 9)
	var ran arch.DeviceID = -1
	if err := p.LaunchOn(4, "elsewhere", 0, func(k *Kernel) {
		ran = k.Device()
	}); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if ran != 4 {
		t.Errorf("kernel ran on %v, want GPU4", ran)
	}
}
