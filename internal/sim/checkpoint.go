// Machine checkpoints: a controlled comparison runs several conditions
// from one post-setup state (the same eviction sets, the same aligned
// pairs), and rebuilding that state per condition repeats the same
// simulation bit for bit. Checkpoint copies the state once; Restore
// lays it onto any machine of the same configuration, reusing that
// machine's allocations the way Reset does. A run from a restored
// machine is byte-identical to the run the checkpointed machine would
// have made next — TestMachineRestoreByteIdentical pins this.
package sim

// Checkpoint returns a copy of all of m's run-to-run state: the root
// and jitter RNG streams, every device's L2 (tags, fill counts,
// replacement RNG, counters), HBM row buffers and counters, SM
// occupancy, physical memory (frames in use and page contents), the
// PID counter, peer enables, fabric counters, port clocks and routing,
// the engine's worker and event numbering, and the contention
// tracker's recency logs.
//
// The checkpoint is itself a Machine, built from m's configuration,
// that is never run: Restore only reads it, so any number of machines
// may restore from one checkpoint concurrently. It shares nothing
// mutable with m. Checkpoint is only legal between Runs.
func (m *Machine) Checkpoint() *Machine {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	cp, err := newMachine(m.cfg)
	if err != nil {
		panic(err) // m was built from this very configuration
	}
	cp.copyFrom(m)
	return cp
}

// Restore makes m's run-to-run state an exact copy of checkpoint cp,
// which must come from a machine of the same configuration (the value
// a MachineSlot compares). Like Reset it is only legal between Runs,
// and it reuses m's existing allocations.
func (m *Machine) Restore(cp *Machine) {
	if m.cfg != cp.cfg {
		panic("sim: Restore from a checkpoint of another machine configuration")
	}
	m.copyFrom(cp)
}

// copyFrom copies src's run-to-run state onto m, component by
// component; Checkpoint and Restore are both this one routine. src is
// only read.
//
// The recency logs keep their event stamps but no records: between
// Runs every recorded worker has finished, and jitterFor drops a
// finished worker's record at the device's next access before it
// counts anyone, so an empty log counts exactly as src's would.
func (m *Machine) copyFrom(src *Machine) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	m.eng.copyFrom(src.eng)
	*m.root = *src.root
	*m.jitter = *src.jitter
	m.phys.CopyFrom(src.phys)
	m.topo.CopyFrom(src.topo)
	for i, d := range m.devices {
		d.CopyFrom(src.devices[i])
		copy(m.peerEnabled[i], src.peerEnabled[i])
		t := src.lastTouch[i]
		m.lastTouch[i] = touchLog{recs: m.lastTouch[i].recs[:0], ev: t.ev, others: t.others}
	}
	m.pidCtr.Store(src.pidCtr.Load())
}
