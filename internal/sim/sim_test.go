package sim

import (
	"errors"
	"runtime"
	"testing"

	"spybox/internal/arch"
	"spybox/internal/l2cache"
)

// quiet returns a machine with jitter disabled for exact assertions.
func quiet(seed uint64) *Machine {
	return MustNewMachine(Options{Seed: seed, NoiseOff: true})
}

func TestLocalHitMissLatencies(t *testing.T) {
	m := quiet(1)
	pa := arch.MakePA(0, 0x10000)
	var first, second arch.Cycles
	_, err := m.Spawn(0, NoOwner, "probe", 0, func(w *Worker) {
		first = w.TouchCG(pa)
		second = w.TouchCG(pa)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if first != arch.NomLocalMiss {
		t.Errorf("cold local access = %v, want %v", first, arch.NomLocalMiss)
	}
	if second != arch.NomLocalHit {
		t.Errorf("warm local access = %v, want %v", second, arch.NomLocalHit)
	}
}

func TestRemoteHitMissLatenciesAndHomeCaching(t *testing.T) {
	// The paper's central discovery: a remote access is cached in the
	// HOME GPU's L2, not the requester's.
	m := quiet(2)
	if err := m.EnablePeer(1, 0); err != nil {
		t.Fatal(err)
	}
	pa := arch.MakePA(0, 0x20000) // homed on GPU0
	var first, second arch.Cycles
	_, err := m.Spawn(1, NoOwner, "remote", 0, func(w *Worker) {
		first = w.TouchCG(pa)
		second = w.TouchCG(pa)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if first != arch.NomRemoteMiss {
		t.Errorf("cold remote access = %v, want %v", first, arch.NomRemoteMiss)
	}
	if second != arch.NomRemoteHit {
		t.Errorf("warm remote access = %v, want %v", second, arch.NomRemoteHit)
	}
	if !m.Device(0).L2().Contains(pa) {
		t.Error("line not cached in home GPU L2")
	}
	if m.Device(1).L2().Contains(pa) {
		t.Error("line wrongly cached in requester L2")
	}
}

func TestRemoteWarmsLocalObserver(t *testing.T) {
	// If a remote GPU pulled a line into GPU0's L2, a subsequent LOCAL
	// access on GPU0 must hit: the cache is genuinely shared.
	m := quiet(3)
	m.EnablePeer(1, 0)
	pa := arch.MakePA(0, 0x30000)
	var remoteDone bool
	var localLat arch.Cycles
	m.Spawn(1, NoOwner, "warm", 0, func(w *Worker) {
		w.TouchCG(pa)
		remoteDone = true
	})
	m.Spawn(0, NoOwner, "observe", 0, func(w *Worker) {
		for !remoteDone {
			w.Busy(1000)
			w.Yield()
		}
		localLat = w.TouchCG(pa)
	})
	m.Run()
	if localLat != arch.NomLocalHit {
		t.Errorf("local access after remote warm = %v, want %v", localLat, arch.NomLocalHit)
	}
}

func TestPeerAccessRequired(t *testing.T) {
	m := quiet(4)
	pa := arch.MakePA(0, 0)
	defer func() {
		if recover() == nil {
			t.Error("remote access without peer enablement should panic (device fault)")
		}
	}()
	m.Spawn(1, NoOwner, "illegal", 0, func(w *Worker) {
		w.TouchCG(pa)
	})
	m.Run()
}

func TestKernelPanicSurfacesFromRun(t *testing.T) {
	// A kernel panicking mid-run among live peers must not take the
	// process down from its own goroutine: Run re-raises the very same
	// value on the caller's.
	m := quiet(15)
	fault := errors.New("kernel fault")
	for i := 0; i < 4; i++ {
		i := i
		m.Spawn(0, NoOwner, "kernel", 0, func(w *Worker) {
			for j := 0; j < 10; j++ {
				w.TouchCG(arch.MakePA(0, uint64(0x10000*(i+1)+j*arch.CacheLineSize)))
				if i == 2 && j == 5 {
					panic(fault)
				}
			}
		})
	}
	defer func() {
		if r := recover(); r != fault {
			t.Errorf("Run re-raised %v, want %v", r, fault)
		}
	}()
	m.Run()
}

// TestKernelPanicCleansUp: after a kernel panics mid-run, Run must
// unwind every other live kernel too. No goroutine may be left behind,
// and the machine must Reset and then replay a fresh machine's run
// exactly.
func TestKernelPanicCleansUp(t *testing.T) {
	const seed = 0xfa17
	want := resetWorkload(t, MustNewMachine(Options{Seed: seed}))

	// Idle pooled coroutines are goroutines too: empty the free list so
	// the count sees only what the run leaves behind.
	coroPool.Lock()
	idle := coroPool.idle
	coroPool.idle = nil
	coroPool.Unlock()
	for _, c := range idle {
		c.stop()
	}
	before := runtime.NumGoroutine()
	m := MustNewMachine(Options{Seed: seed ^ 0x77})
	fault := errors.New("kernel fault")
	for i := 0; i < 4; i++ {
		i := i
		if _, err := m.Spawn(0, NoOwner, "kernel", 0, func(w *Worker) {
			for j := 0; j < 10; j++ {
				w.TouchCG(arch.MakePA(0, uint64(0x10000*(i+1)+j*arch.CacheLineSize)))
				if i == 2 && j == 5 {
					panic(fault)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != fault {
				t.Errorf("Run re-raised %v, want %v", r, fault)
			}
		}()
		m.Run()
	}()

	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines left after the panicking run", after-before)
	}

	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Reset after a panicking run: %v", r)
			}
		}()
		m.Reset(seed)
	}()
	got := resetWorkload(t, m)
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: reset %d vs fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run after the panic diverges from fresh at sample %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestEnablePeerRequiresNVLink(t *testing.T) {
	m := quiet(5)
	// 0 and 5 are not directly connected on a DGX-1.
	if err := m.EnablePeer(0, 5); err == nil {
		t.Fatal("EnablePeer(0,5) should fail: no direct NVLink")
	}
	if err := m.EnablePeer(0, 4); err != nil {
		t.Fatalf("EnablePeer(0,4) should succeed: %v", err)
	}
	if err := m.EnablePeer(2, 2); err != nil {
		t.Fatalf("self peer should be trivially fine: %v", err)
	}
}

func TestDeterministicConcurrentRuns(t *testing.T) {
	// Two workers interleave; the full latency trace must be identical
	// across machine rebuilds with the same seed, including jitter.
	run := func() []arch.Cycles {
		m := MustNewMachine(Options{Seed: 77})
		m.EnablePeer(1, 0)
		var trace []arch.Cycles
		for wi := 0; wi < 2; wi++ {
			dev := arch.DeviceID(wi)
			m.Spawn(dev, NoOwner, "w", 0, func(w *Worker) {
				for i := 0; i < 50; i++ {
					pa := arch.MakePA(0, uint64(0x40000+i*arch.CacheLineSize))
					lat := w.TouchCG(pa)
					trace = append(trace, lat)
				}
			})
		}
		m.Run()
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) || len(t1) != 100 {
		t.Fatalf("trace lengths %d, %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestClockAdvances(t *testing.T) {
	m := quiet(6)
	var c0, c1, c2 arch.Cycles
	m.Spawn(0, NoOwner, "clock", 0, func(w *Worker) {
		c0 = w.Clock()
		w.Busy(100)
		c1 = w.Clock()
		w.BusyHeavy(10)
		c2 = w.Clock()
	})
	m.Run()
	if c1 < c0+100*arch.LatALUOp {
		t.Errorf("Busy did not advance clock: %v -> %v", c0, c1)
	}
	if c2 < c1+10*arch.LatHeavyOp {
		t.Errorf("BusyHeavy did not advance clock: %v -> %v", c1, c2)
	}
}

func TestProbeLinesAggregateAndPerLine(t *testing.T) {
	m := quiet(7)
	pas := make([]arch.PA, 16)
	for i := range pas {
		pas[i] = arch.MakePA(0, uint64(0x80000+i*arch.CacheLineSize))
	}
	var cold, warm []arch.Cycles
	var coldCached, warmCached []bool
	var coldTotal, warmTotal arch.Cycles
	l2 := m.Device(0).L2()
	cached := func() []bool {
		in := make([]bool, len(pas))
		for i, pa := range pas {
			in[i] = l2.Contains(pa)
		}
		return in
	}
	m.Spawn(0, NoOwner, "probe", 0, func(w *Worker) {
		coldCached = cached()
		cold, coldTotal = w.ProbeLines(nil, pas)
		warmCached = cached()
		warm, warmTotal = w.ProbeLines(nil, pas)
	})
	m.Run()
	for i := range pas {
		// Cold misses pay HBM latency, minus at most the open-row
		// discount for row-buffer neighbours.
		if cold[i] > arch.NomLocalMiss || cold[i] < arch.NomLocalMiss-arch.LatHBM/8 {
			t.Errorf("cold line %d = %v, want ~%v", i, cold[i], arch.NomLocalMiss)
		}
		if warm[i] != arch.NomLocalHit {
			t.Errorf("warm line %d = %v", i, warm[i])
		}
		// The L2's own residency before each probe agrees with the
		// latency classes.
		if coldCached[i] {
			t.Errorf("cold line %d already in L2", i)
		}
		if !warmCached[i] {
			t.Errorf("warm line %d not in L2", i)
		}
	}
	// Aggregate reflects memory-level parallelism: far less than the
	// sum, more than a single access.
	wantWarm := arch.NomLocalHit + 15*arch.HitII
	if warmTotal != wantWarm {
		t.Errorf("warm aggregate = %v, want %v", warmTotal, wantWarm)
	}
	wantColdMax := arch.NomLocalMiss + 15*arch.HitII + 16*arch.MissII
	if coldTotal > wantColdMax || coldTotal <= warmTotal {
		t.Errorf("cold aggregate = %v, want in (%v, %v]", coldTotal, warmTotal, wantColdMax)
	}
}

func TestStreamRange(t *testing.T) {
	m := quiet(8)
	base := arch.MakePA(0, 0x100000)
	var misses1, misses2 int
	m.Spawn(0, NoOwner, "stream", 0, func(w *Worker) {
		misses1, _ = w.StreamRange(base, 64, arch.CacheLineSize)
		misses2, _ = w.StreamRange(base, 64, arch.CacheLineSize)
	})
	m.Run()
	if misses1 != 64 {
		t.Errorf("cold stream misses = %d, want 64", misses1)
	}
	if misses2 != 0 {
		t.Errorf("warm stream misses = %d, want 0", misses2)
	}
}

func TestSpawnOccupancyIntegration(t *testing.T) {
	m := quiet(9)
	// Fill GPU0's shared memory, then a shared-memory-needing spawn
	// must fail while a zero-shared-mem one succeeds.
	for i := 0; i < 2*arch.NumSMs; i++ {
		if _, err := m.Spawn(0, NoOwner, "blocker", arch.MaxSharedMemPerBlock, func(w *Worker) {}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Spawn(0, NoOwner, "noise", 1024, func(w *Worker) {}); err == nil {
		t.Fatal("spawn should fail on saturated GPU")
	}
	if _, err := m.Spawn(0, NoOwner, "free", 0, func(w *Worker) {}); err != nil {
		t.Fatal(err)
	}
	m.Run()
	// After Run, reservations are released.
	if _, err := m.Spawn(0, NoOwner, "after", 1024, func(w *Worker) {}); err != nil {
		t.Fatalf("post-run spawn failed: %v", err)
	}
	m.Run()
}

func TestSpawnBadDevice(t *testing.T) {
	m := quiet(10)
	if _, err := m.Spawn(arch.DeviceID(99), NoOwner, "x", 0, func(w *Worker) {}); err == nil {
		t.Fatal("spawn on missing device should fail")
	}
}

func TestContentionRaisesJitter(t *testing.T) {
	// With noise on, the dispersion of probe latencies must grow when
	// other workers hammer the same L2 — the mechanism behind the
	// Fig. 9 error-rate curve.
	spread := func(nNoisy int) float64 {
		m := MustNewMachine(Options{Seed: 11})
		var minLat, maxLat arch.Cycles = 1 << 62, 0
		stop := false
		for i := 0; i < nNoisy; i++ {
			off := uint64(0x400000 + i*0x10000)
			m.Spawn(0, NoOwner, "noisy", 0, func(w *Worker) {
				for !stop {
					w.TouchCG(arch.MakePA(0, off))
					w.Busy(10)
				}
			})
		}
		m.Spawn(0, NoOwner, "meter", 0, func(w *Worker) {
			pa := arch.MakePA(0, 0x500000)
			w.TouchCG(pa)
			for i := 0; i < 300; i++ {
				lat := w.TouchCG(pa)
				if lat < minLat {
					minLat = lat
				}
				if lat > maxLat {
					maxLat = lat
				}
			}
			stop = true
		})
		m.Run()
		return float64(maxLat - minLat)
	}
	alone := spread(0)
	crowded := spread(6)
	if crowded <= alone {
		t.Errorf("jitter spread did not grow with contention: alone=%v crowded=%v", alone, crowded)
	}
}

func TestNVLinkTrafficAccounted(t *testing.T) {
	m := quiet(12)
	m.EnablePeer(1, 0)
	m.Spawn(1, NoOwner, "traffic", 0, func(w *Worker) {
		for i := 0; i < 20; i++ {
			w.TouchCG(arch.MakePA(0, uint64(i*arch.CacheLineSize)))
		}
	})
	m.Run()
	link := m.Topology().LinkBetween(0, 1)
	if link.Transactions != 20 {
		t.Errorf("link transactions = %d, want 20", link.Transactions)
	}
}

func TestCustomCacheConfig(t *testing.T) {
	cfg := l2cache.Config{Sets: 64, Ways: 4, LineSize: 128, PageSize: 4096, Policy: l2cache.LRU, HashIndex: true}
	m := MustNewMachine(Options{Seed: 13, CacheCfg: cfg, NoiseOff: true})
	if got := m.Device(0).L2().Config().Sets; got != 64 {
		t.Errorf("custom sets = %d", got)
	}
}

func TestYieldInterleavesEqualClocks(t *testing.T) {
	// Two workers at the same clock must interleave by worker ID
	// deterministically, and Yield must not deadlock.
	m := quiet(14)
	var order []string
	m.Spawn(0, NoOwner, "a", 0, func(w *Worker) {
		for i := 0; i < 3; i++ {
			order = append(order, "a")
			w.Yield()
		}
	})
	m.Spawn(0, NoOwner, "b", 0, func(w *Worker) {
		for i := 0; i < 3; i++ {
			order = append(order, "b")
			w.Yield()
		}
	})
	m.Run()
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
}

func TestMIGFrameFilter(t *testing.T) {
	m := MustNewMachine(Options{Seed: 20, MIGPartitions: 2, NoiseOff: true})
	if m.MIGPartitions() != 2 {
		t.Fatal("partitions not recorded")
	}
	// Partition regions: 4 regions, 2 partitions -> pid 0 gets
	// regions {0,1}, pid 1 gets {2,3}.
	f0, f1 := m.FrameFilter(0), m.FrameFilter(1)
	for frame := uint64(0); frame < 16; frame++ {
		r := int(frame % 4)
		if got := f0(frame); got != (r < 2) {
			t.Errorf("pid0 frame %d (region %d): allow=%v", frame, r, got)
		}
		if got := f1(frame); got != (r >= 2) {
			t.Errorf("pid1 frame %d (region %d): allow=%v", frame, r, got)
		}
	}
	// Hash must be off under MIG so regions are physical.
	if m.Device(0).L2().Config().HashIndex {
		t.Error("index hash left enabled under MIG")
	}
	// No partitioning -> nil filter.
	m2 := MustNewMachine(Options{Seed: 21, NoiseOff: true})
	if m2.FrameFilter(0) != nil {
		t.Error("unpartitioned machine returned a frame filter")
	}
}

// TestMachineFromProfile builds machines on each named profile and
// checks the box shape plus the profile latency model end to end: a
// local hit on a V100 box must cost the V100's L2 latency, a remote
// access must add the NVSwitch hop, and GPUs 8..15 must be real,
// peer-reachable devices (the old fixed 8x8 arrays made them
// unrepresentable).
func TestMachineFromProfile(t *testing.T) {
	for _, prof := range arch.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			m, err := NewMachine(Options{Seed: 5, Profile: &prof, NoiseOff: true})
			if err != nil {
				t.Fatal(err)
			}
			if m.NumGPUs() != prof.NumGPUs {
				t.Fatalf("NumGPUs = %d, want %d", m.NumGPUs(), prof.NumGPUs)
			}
			if m.Profile().Name != prof.Name {
				t.Fatalf("Profile() = %q", m.Profile().Name)
			}
			if cfg := m.Device(0).L2().Config(); cfg.Sets != prof.L2Sets || cfg.Ways != prof.L2Ways {
				t.Fatalf("device cache %dx%d, want %dx%d", cfg.Sets, cfg.Ways, prof.L2Sets, prof.L2Ways)
			}
			if m.Device(0).NumSMs() != prof.NumSMs {
				t.Fatalf("NumSMs = %d, want %d", m.Device(0).NumSMs(), prof.NumSMs)
			}
			// Highest-numbered GPU directly linked to GPU0: device 15 on
			// the DGX-2 crossbar, device 4 on the cube-mesh.
			peers := m.Topology().Peers(0)
			last := peers[len(peers)-1]
			if err := m.EnablePeer(last, 0); err != nil {
				t.Fatalf("peer %v->0: %v", last, err)
			}
			var missLat, hitLat, remoteHit arch.Cycles
			w, err := m.Spawn(0, NoOwner, "local", 0, func(w *Worker) {
				missLat = w.TouchCG(arch.MakePA(0, 0x10000))
				hitLat = w.TouchCG(arch.MakePA(0, 0x10000))
			})
			if err != nil {
				t.Fatal(err)
			}
			_ = w
			m.Run()
			if hitLat != prof.Lat.L2Hit {
				t.Errorf("local hit = %v, want %v", hitLat, prof.Lat.L2Hit)
			}
			if missLat < prof.Lat.L2Hit+prof.Lat.HBM/2 {
				t.Errorf("local miss = %v, implausibly cheap", missLat)
			}
			_, err = m.Spawn(last, NoOwner, "remote", 0, func(w *Worker) {
				remoteHit = w.TouchCG(arch.MakePA(0, 0x10000))
			})
			if err != nil {
				t.Fatal(err)
			}
			m.Run()
			if remoteHit != prof.Lat.L2Hit+prof.Lat.NVLinkHop {
				t.Errorf("remote hit from %v = %v, want %v", last, remoteHit, prof.Lat.L2Hit+prof.Lat.NVLinkHop)
			}
		})
	}
}

// TestDGX2PeerRules pins the topology semantics per profile: on the
// cube-mesh, unconnected pairs refuse peer access; on NVSwitch boxes
// every pair is reachable.
func TestDGX2PeerRules(t *testing.T) {
	p100, v100 := arch.P100DGX1(), arch.V100DGX2()
	m1 := MustNewMachine(Options{Seed: 1, Profile: &p100})
	if err := m1.EnablePeer(0, 5); err == nil {
		t.Error("DGX-1: GPU0->GPU5 has no direct link and must refuse peer access")
	}
	m2 := MustNewMachine(Options{Seed: 1, Profile: &v100})
	for dst := 1; dst < 16; dst++ {
		if err := m2.EnablePeer(0, arch.DeviceID(dst)); err != nil {
			t.Errorf("DGX-2: GPU0->GPU%d: %v", dst, err)
		}
	}
}
