package sim

import (
	"testing"

	"spybox/internal/arch"
	"spybox/internal/nvlink"
	"spybox/internal/vmem"
	"spybox/internal/xrand"
)

// dirtyForCheckpoint drives m into a state that exercises every part
// of a checkpoint: cache, HBM and fabric state from a full run, a
// second peer enable, an L2 partition, written page contents, a used
// PID, and (on a switch fabric) a pinned pair and a throttled plane.
// It returns the physical addresses of the words it wrote.
func dirtyForCheckpoint(t *testing.T, m *Machine) []arch.PA {
	t.Helper()
	resetWorkload(t, m)
	if err := m.EnablePeer(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Device(0).L2().SetPartition(m.Device(0).L2().Config().Ways / 2); err != nil {
		t.Fatal(err)
	}
	sp := vmem.NewSpace(m.AllocPID(), m.Phys(), xrand.New(5))
	va, err := sp.Alloc(2*arch.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	var pas []arch.PA
	for i := 0; i < 16; i++ {
		w := va + arch.VA(i*4096)
		sp.WriteU64(w, uint64(i)*0x9e37+1)
		pas = append(pas, sp.MustTranslate(w))
	}
	if topo := m.Topology(); topo.HasFabric() {
		if err := topo.PinPlane(1, 0, topo.NumPlanes()-1); err != nil {
			t.Fatal(err)
		}
		// Derated this far, the plane queues even a lone reader's loads.
		if err := topo.ThrottlePlane(topo.PlaneFor(2, 0), 1000); err != nil {
			t.Fatal(err)
		}
	}
	return pas
}

// restoreWorkload runs resetWorkload's kernels, a remote reader on
// GPU 2 (relying on the peer enable made before the checkpoint) that
// loads the words at pas, and a kernel that thrashes one GPU 0 set
// only under the partition made before it; then it allocates fresh
// frames and a PID. Its trace folds in latencies, loaded values, frame
// placement (which depends on the frames already in use) and the PID
// counter.
func restoreWorkload(t *testing.T, m *Machine, pas []arch.PA) []uint64 {
	t.Helper()
	var trace []uint64
	for _, c := range resetWorkload(t, m) {
		trace = append(trace, uint64(c))
	}
	var reads []uint64
	if _, err := m.Spawn(2, NoOwner, "reader", 0, func(w *Worker) {
		for _, pa := range pas {
			v, lat := w.LoadCG(pa)
			reads = append(reads, v, uint64(lat))
		}
	}); err != nil {
		t.Fatal(err)
	}
	// More same-set lines on GPU 0 than a half-way partition holds:
	// the second pass hits only without the partition.
	l2 := m.Device(0).L2()
	ways := l2.Config().Ways
	var conflict []arch.PA
	for f := uint64(0); len(conflict) < ways*3/4; f++ {
		if pa := arch.MakePA(0, 0x1000000+f*arch.PageSize); l2.SetIndex(pa) == l2.SetIndex(arch.MakePA(0, 0x1000000)) {
			conflict = append(conflict, pa)
		}
	}
	if _, err := m.Spawn(0, NoOwner, "conflict", 0, func(w *Worker) {
		for pass := 0; pass < 2; pass++ {
			for _, pa := range conflict {
				reads = append(reads, uint64(w.TouchCG(pa)))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	m.Run()
	trace = append(trace, reads...)
	sp := vmem.NewSpace(m.AllocPID(), m.Phys(), xrand.New(11))
	va, err := sp.Alloc(8*arch.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		trace = append(trace, uint64(sp.MustTranslate(va+arch.VA(i*arch.PageSize))))
	}
	return append(trace, uint64(m.AllocPID()))
}

// machineCounters lists every statistic the machine exposes: each
// device's L2 totals and per-set counters and HBM counters, and the
// fabric's link, plane and port counters.
func machineCounters(m *Machine) []uint64 {
	var out []uint64
	for i := 0; i < m.NumGPUs(); i++ {
		d := m.Device(arch.DeviceID(i))
		hits, misses, evictions := d.L2().Totals()
		out = append(out, hits, misses, evictions)
		for _, s := range d.L2().SetCounters() {
			out = append(out, s.Hits, s.Misses)
		}
		reads, rowHits, bytes := d.HBM().Stats()
		out = append(out, reads, rowHits, bytes)
	}
	topo := m.Topology()
	for _, l := range topo.Links() {
		out = append(out, l.Transactions, l.Bytes)
	}
	for _, p := range topo.Planes() {
		out = append(out, p.Transactions, p.Bytes)
	}
	for g := 0; g < m.NumGPUs(); g++ {
		for pl := 0; pl < topo.NumPlanes(); pl++ {
			for _, port := range []*nvlink.Port{topo.EgressPort(arch.DeviceID(g), pl), topo.IngressPort(arch.DeviceID(g), pl)} {
				out = append(out, port.Bursts, port.Queued, uint64(port.QueueCycles))
			}
		}
	}
	return out
}

func equalTraces(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: lengths differ: %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: diverges at entry %d: %d vs %d", what, i, got[i], want[i])
		}
	}
}

// TestMachineRestoreByteIdentical: a machine restored from a
// checkpoint runs exactly as the checkpointed machine went on to run —
// same latency trace, loaded data, frame placement and PIDs, and the
// same L2, HBM and NVLink counters — even when the restored machine
// had run something else first. Restoring twice replays just as
// exactly, so running from a restore leaves the checkpoint untouched.
func TestMachineRestoreByteIdentical(t *testing.T) {
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
	const seed = 0xc0ffee
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Seed = seed
			orig := MustNewMachine(opts)
			pas := dirtyForCheckpoint(t, orig)
			cp := orig.Checkpoint()
			want := restoreWorkload(t, orig, pas)
			wantCounters := machineCounters(orig)

			// A machine with another seed and another history, without
			// the peer enable and the partition the checkpoint carries.
			other := opts
			other.Seed = seed ^ 0x5a5a5a5a
			m := MustNewMachine(other)
			resetWorkload(t, m)
			m.Restore(cp)
			equalTraces(t, "restored run", restoreWorkload(t, m, pas), want)
			equalTraces(t, "restored counters", machineCounters(m), wantCounters)

			m.Restore(cp)
			equalTraces(t, "second restore", restoreWorkload(t, m, pas), want)
			equalTraces(t, "second restore counters", machineCounters(m), wantCounters)
		})
	}

	// A checkpoint keeps only non-empty L2 sets, so one whose devices
	// are all empty must still empty every set of the target's L2s.
	t.Run("empty-devices", func(t *testing.T) {
		cp := MustNewMachine(Options{Seed: seed}).Checkpoint()
		want := resetWorkload(t, MustNewMachine(Options{Seed: seed}))

		m := MustNewMachine(Options{Seed: seed ^ 0x5a5a5a5a})
		dirtyForCheckpoint(t, m)
		m.Restore(cp)
		for i := 0; i < m.NumGPUs(); i++ {
			l2 := m.Device(arch.DeviceID(i)).L2()
			for set := 0; set < l2.Config().Sets; set++ {
				if n := l2.OccupiedWays(set); n != 0 {
					t.Fatalf("GPU %d set %d holds %d lines after restoring an empty checkpoint", i, set, n)
				}
			}
			if l2.PartitionWays() != 0 {
				t.Fatalf("GPU %d keeps a %d-way partition", i, l2.PartitionWays())
			}
		}
		for i, c := range machineCounters(m) {
			if c != 0 {
				t.Fatalf("counter %d is %d after restoring an empty checkpoint", i, c)
			}
		}
		got := resetWorkload(t, m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("restored run diverges from a fresh machine's at access %d: %d vs %d", i, got[i], want[i])
			}
		}
	})
}

// TestRestoreRejectsOtherConfiguration: a checkpoint only restores
// onto a machine of its own configuration.
func TestRestoreRejectsOtherConfiguration(t *testing.T) {
	cp := MustNewMachine(Options{Seed: 1}).Checkpoint()
	m := MustNewMachine(Options{Seed: 1, MIGPartitions: 2})
	defer func() {
		if recover() == nil {
			t.Error("Restore across configurations should panic")
		}
	}()
	m.Restore(cp)
}
