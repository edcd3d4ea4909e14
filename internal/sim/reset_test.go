package sim

import (
	"fmt"
	"sync"
	"testing"

	"spybox/internal/arch"
	"spybox/internal/l2cache"
	"spybox/internal/nvlink"
)

// resetWorkload drives a machine through every event kind — local and
// remote touches, warp probes, streaming ranges — with jitter live,
// and returns the full latency trace. Any divergence between a fresh
// and a reset machine shows up here, because every latency folds in
// the jitter RNG, cache state, HBM row state, and fabric clocks.
func resetWorkload(t *testing.T, m *Machine) []arch.Cycles {
	t.Helper()
	var local, remote []arch.Cycles
	if err := m.EnablePeer(1, 0); err != nil {
		t.Fatal(err)
	}
	_, err := m.Spawn(0, "local", 0, func(w *Worker) {
		for i := 0; i < 40; i++ {
			local = append(local, w.TouchCG(arch.MakePA(0, uint64(0x10000+i*256))))
		}
		pas := make([]arch.PA, 8)
		for i := range pas {
			pas[i] = arch.MakePA(0, uint64(0x40000+i*arch.CacheLineSize))
		}
		lats, total := w.ProbeLines(nil, pas)
		local = append(local, lats...)
		local = append(local, total)
		_, st := w.StreamRange(arch.MakePA(0, 0x80000), 32, arch.CacheLineSize)
		local = append(local, st)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Spawn(1, "remote", 0, func(w *Worker) {
		// Remote touches of device 0's memory: cached in the home L2,
		// traversing the fabric, contending with the local worker.
		for i := 0; i < 40; i++ {
			remote = append(remote, w.TouchCG(arch.MakePA(0, uint64(0x10000+i*256))))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	return append(local, remote...)
}

func TestMachineResetByteIdentical(t *testing.T) {
	profile := func(name string) *arch.Profile {
		p, err := arch.LookupProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		return &p
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"p100-dgx1", Options{Profile: profile("p100-dgx1")}},
		{"v100-dgx2", Options{Profile: profile("v100-dgx2")}},
		{"a100-class", Options{Profile: profile("a100-class")}},
		{"p100-mig", Options{Profile: profile("p100-dgx1"), MIGPartitions: 4}},
		{"v100-contended", Options{Profile: profile("v100-dgx2"), ContentionSigmaPer: 3.5}},
		{"p100-noiseoff", Options{Profile: profile("p100-dgx1"), NoiseOff: true}},
	}
	const seed = 0xdecaf
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := tc.opts
			fresh.Seed = seed
			want := resetWorkload(t, MustNewMachine(fresh))

			// Build with a different seed, dirty every subsystem with a
			// full run, then Reset to the reference seed and rerun.
			dirty := tc.opts
			dirty.Seed = seed ^ 0x5a5a5a5a
			m := MustNewMachine(dirty)
			resetWorkload(t, m)
			m.Reset(seed)
			got := resetWorkload(t, m)

			if len(got) != len(want) {
				t.Fatalf("trace lengths differ: reset %d vs fresh %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("reset run diverges from fresh at sample %d: %v vs %v", i, got[i], want[i])
				}
			}

			// A second Reset must replay just as exactly.
			m.Reset(seed)
			again := resetWorkload(t, m)
			for i := range want {
				if again[i] != want[i] {
					t.Fatalf("second reset diverges at sample %d: %v vs %v", i, again[i], want[i])
				}
			}
		})
	}
}

func TestMachinePoolReusesAndResets(t *testing.T) {
	pool := NewMachinePool()
	opts := Options{Seed: 7}
	m1, err := pool.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := resetWorkload(t, m1)
	pool.Put(m1)

	opts.Seed = 7
	m2, err := pool.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("pool did not reuse the returned machine")
	}
	got := resetWorkload(t, m2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pooled rerun diverges at sample %d: %v vs %v", i, got[i], want[i])
		}
	}
	if hits, misses := pool.Stats(); hits != 1 || misses != 1 {
		t.Errorf("pool stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// While m2 is leased, a same-fingerprint Get must build fresh —
	// two live machines never alias.
	m3, err := pool.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m2 {
		t.Fatal("pool handed out a leased machine")
	}
	pool.Recycle()
}

func TestMachinePoolUnpoolableTopology(t *testing.T) {
	topo, err := nvlink.FromProfile(arch.P100DGX1())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewMachinePool()
	opts := Options{Seed: 1, Topology: topo}
	m1, err := pool.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(m1) // ignored: unpoolable machines are never tracked
	m2, err := pool.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("machines built from a caller-provided Topology must not pool")
	}
	if hits, _ := pool.Stats(); hits != 0 {
		t.Errorf("unpoolable options recorded %d pool hits", hits)
	}
}

// TestMachinePoolConcurrent exercises pooling from many goroutines
// under the -race CI job, in both supported shapes: a shared pool with
// explicit Put (a machine is returned only by the goroutine holding
// it), and the runner's one-pool-per-worker shape where the worker
// sweeps its own leases with Recycle. Small cache geometry keeps the
// machines cheap.
func TestMachinePoolConcurrent(t *testing.T) {
	cfg := l2cache.Config{Sets: 64, Ways: 4, LineSize: arch.CacheLineSize,
		PageSize: arch.PageSize, Policy: l2cache.LRU, HashIndex: true}
	touch := func(pool *MachinePool, g, i int) error {
		m, err := pool.Get(Options{Seed: uint64(g*100 + i), CacheCfg: cfg, NoiseOff: true})
		if err != nil {
			return err
		}
		var lat arch.Cycles
		if _, err := m.Spawn(0, fmt.Sprintf("g%d", g), 0, func(w *Worker) {
			lat = w.TouchCG(arch.MakePA(0, 0x10000))
		}); err != nil {
			return err
		}
		m.Run()
		if lat != arch.NomLocalMiss {
			return fmt.Errorf("goroutine %d iter %d: cold touch = %v, want %v", g, i, lat, arch.NomLocalMiss)
		}
		pool.Put(m)
		return nil
	}
	shared := NewMachinePool()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Shared pool: this goroutine Puts back only what it got.
			for i := 0; i < 4; i++ {
				if err := touch(shared, g, i); err != nil {
					errs <- err
					return
				}
			}
			// Private pool, runner-shaped: Recycle sweeps own leases.
			own := NewMachinePool()
			for i := 0; i < 4; i++ {
				if _, err := own.Get(Options{Seed: uint64(i), CacheCfg: cfg, NoiseOff: true}); err != nil {
					errs <- err
					return
				}
				own.Recycle()
			}
			if hits, _ := own.Stats(); hits != 3 {
				errs <- fmt.Errorf("goroutine %d: private pool hits = %d, want 3", g, hits)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
