// Machine checkpoints: a controlled comparison runs several conditions
// from one post-setup state (the same eviction sets, the same aligned
// pairs), and rebuilding that state per condition repeats the same
// simulation bit for bit. Checkpoint copies the state once; Restore
// lays it onto any machine of the same configuration, reusing that
// machine's allocations the way Reset does. A run from a restored
// machine is byte-identical to the run the checkpointed machine would
// have made next — TestMachineRestoreByteIdentical pins this.
package sim

import (
	"slices"

	"spybox/internal/gpu"
	"spybox/internal/nvlink"
	"spybox/internal/vmem"
	"spybox/internal/xrand"
)

// Checkpoint is a copy of all of a machine's run-to-run state. It is
// never modified after Machine.Checkpoint returns, so any number of
// machines may restore from one checkpoint concurrently, and it shares
// nothing mutable with the machine it was taken from. Each device's
// L2 is kept compactly (see l2cache.Checkpoint): an attack setup
// fills a few sets of a box's L2s, so a checkpoint holds a small part
// of the tag arrays of the machine it stands for.
type Checkpoint struct {
	cfg          Config
	eng          *engine
	root, jitter xrand.Source
	phys         *vmem.PhysMem
	topo         *nvlink.Topology
	devices      []*gpu.Checkpoint
	peerEnabled  [][]bool
	// touch keeps each recency log's event stamps but no records:
	// between Runs every recorded worker has finished, and jitterFor
	// drops a finished worker's record at the device's next access
	// before it counts anyone, so an empty log counts exactly as the
	// checkpointed machine's would.
	touch []touchLog
	pid   int64
}

// Checkpoint returns a copy of all of m's run-to-run state: the root
// and jitter RNG streams, every device's L2 (tags, fill counts,
// replacement RNG, counters), HBM row buffers and counters, SM
// occupancy, physical memory (frames in use and page contents), the
// PID counter, peer enables, fabric counters, port clocks and routing,
// the engine's worker and event numbering, and the contention
// tracker's event stamps. Checkpoint is only legal between Runs.
func (m *Machine) Checkpoint() *Checkpoint {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	topo, err := nvlink.FromProfile(m.cfg.prof)
	if err != nil {
		panic(err) // m's own topology was built from this very profile
	}
	topo.CopyFrom(m.topo)
	cp := &Checkpoint{
		cfg:    m.cfg,
		eng:    new(engine),
		root:   *m.root,
		jitter: *m.jitter,
		phys:   vmem.NewPhysMem(len(m.devices)),
		topo:   topo,
		pid:    m.pidCtr.Load(),
	}
	cp.eng.copyFrom(m.eng)
	cp.phys.CopyFrom(m.phys)
	for i, d := range m.devices {
		cp.devices = append(cp.devices, d.Checkpoint())
		cp.peerEnabled = append(cp.peerEnabled, slices.Clone(m.peerEnabled[i]))
		t := m.lastTouch[i]
		cp.touch = append(cp.touch, touchLog{ev: t.ev, others: t.others})
	}
	return cp
}

// Restore makes m's run-to-run state an exact copy of checkpoint cp,
// which must come from a machine of the same configuration (the value
// a MachineSlot compares). Like Reset it is only legal between Runs,
// and it reuses m's existing allocations.
func (m *Machine) Restore(cp *Checkpoint) {
	if m.cfg != cp.cfg {
		panic("sim: Restore from a checkpoint of another machine configuration")
	}
	m.runMu.Lock()
	defer m.runMu.Unlock()
	m.eng.copyFrom(cp.eng)
	*m.root = cp.root
	*m.jitter = cp.jitter
	m.phys.CopyFrom(cp.phys)
	m.topo.CopyFrom(cp.topo)
	for i, d := range m.devices {
		d.Restore(cp.devices[i])
		copy(m.peerEnabled[i], cp.peerEnabled[i])
		t := cp.touch[i]
		m.lastTouch[i] = touchLog{recs: m.lastTouch[i].recs[:0], ev: t.ev, others: t.others}
	}
	m.pidCtr.Store(cp.pid)
}
