package sim

import (
	"slices"
	"testing"

	"spybox/internal/arch"
	"spybox/internal/l2cache"
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
	_, err := m.Spawn(0, NoOwner, "local", 0, func(w *Worker) {
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
	_, err = m.Spawn(1, NoOwner, "remote", 0, func(w *Worker) {
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
	contended := profile("v100-dgx2")
	contended.Lat.ContentionSigmaPer = 3.5
	cases := []struct {
		name string
		opts Options
	}{
		{"p100-dgx1", Options{Profile: profile("p100-dgx1")}},
		{"v100-dgx2", Options{Profile: profile("v100-dgx2")}},
		{"a100-class", Options{Profile: profile("a100-class")}},
		{"p100-mig", Options{Profile: profile("p100-dgx1"), MIGPartitions: 4}},
		{"v100-contended", Options{Profile: contended}},
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

// TestMachineSlotReusesAfterRelease: once a trial releases the slot,
// the next Get for the same configuration lends the kept machine, reset, and its
// run replays the fresh machine's samples exactly.
func TestMachineSlotReusesAfterRelease(t *testing.T) {
	var slot MachineSlot
	opts := Options{Seed: 7}
	m1, err := slot.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := resetWorkload(t, m1)
	slot.Release()

	m2, err := slot.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("slot did not reuse the released machine")
	}
	got := resetWorkload(t, m2)
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: reused %d vs fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused rerun diverges at sample %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestMachineSlotNoDoubleLend: within one trial a second Get for the
// same configuration builds its own machine — two live machines never
// alias — and the slot keeps lending the first one after Release.
func TestMachineSlotNoDoubleLend(t *testing.T) {
	var slot MachineSlot
	opts := Options{Seed: 3}
	m1, err := slot.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := slot.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m1 {
		t.Fatal("slot lent the same machine twice within one trial")
	}
	slot.Release()
	m3, err := slot.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m1 {
		t.Fatal("slot dropped its kept machine for a second request")
	}
}

// TestMachineSlotFingerprintChange: a free slot asked for a different
// configuration builds it and keeps it in place of the old machine.
func TestMachineSlotFingerprintChange(t *testing.T) {
	var slot MachineSlot
	m1, err := slot.Get(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	slot.Release()
	mig := Options{Seed: 5, MIGPartitions: 2}
	m2, err := slot.Get(mig)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m1 {
		t.Fatal("slot lent a machine built from a different configuration")
	}
	slot.Release()
	m3, err := slot.Get(mig)
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m2 {
		t.Fatal("slot did not keep the machine built for the new configuration")
	}
	slot.Release()
	if m4, err := slot.Get(Options{Seed: 5}); err != nil {
		t.Fatal(err)
	} else if m4 == m1 || m4 == m2 {
		t.Fatal("slot lent a dropped or mismatched machine")
	}
}

// TestMachineSlotSameConfigOtherSpelling: options that spell one
// configuration differently — a nil Profile or the P100 profile
// itself, a zero CacheCfg or the profile's own geometry, MIG
// partitioning off as 0 or as 1 — get the kept machine.
func TestMachineSlotSameConfigOtherSpelling(t *testing.T) {
	p100 := arch.P100DGX1()
	spellings := []Options{
		{Seed: 9},
		{Seed: 9, Profile: &p100},
		{Seed: 9, CacheCfg: l2cache.FromProfile(p100)},
		{Seed: 9, Profile: &p100, CacheCfg: l2cache.FromProfile(p100), MIGPartitions: 1},
	}
	var slot MachineSlot
	m1, err := slot.Get(spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	want := resetWorkload(t, m1)
	slot.Release()
	for i, opts := range spellings[1:] {
		m, err := slot.Get(opts)
		if err != nil {
			t.Fatal(err)
		}
		if m != m1 {
			t.Fatalf("spelling %d: slot built a new machine for %+v", i+1, opts)
		}
		if got := resetWorkload(t, m); !slices.Equal(got, want) {
			t.Fatalf("spelling %d: reused run diverges from the first", i+1)
		}
		slot.Release()
	}
}
