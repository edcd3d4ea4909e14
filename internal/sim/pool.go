// Machine reuse: trial runners would burn most of their time building
// fresh boxes (a DGX-2's L2 tag arrays alone are megabytes), yet every
// machine built from the same Options differs only by seed — which
// Reset rewinds in place. A MachineSlot keeps one machine for one trial
// worker and lends it, reset, to the worker's next trial whose options
// resolve to the same configuration, turning the per-trial cost from
// "allocate a box" into "rewind a box": an L2 reset clears one fill
// count per set and per-set counters, never the tag arrays themselves.
package sim

// MachineSlot keeps one machine across the trials of one worker. It
// is not safe for concurrent use: each trial worker owns its slot, and
// only that worker's trials reach it. The zero value is ready to use.
type MachineSlot struct {
	m    *Machine
	lent bool // m is in use by the current trial
}

// Get returns a machine built from opts. The kept machine is lent,
// reset to opts.Seed, when its configuration equals opts' and the
// current trial does not hold it yet; any other request builds a new
// machine, which a free slot keeps in place of the old one. A second
// request within one trial therefore gets its own machine, so two live
// machines never alias. A nil slot always builds.
func (s *MachineSlot) Get(opts Options) (*Machine, error) {
	if s == nil || s.lent {
		return NewMachine(opts)
	}
	cfg, err := opts.Config()
	if err != nil {
		return nil, err
	}
	if s.m == nil || s.m.cfg != cfg {
		m, err := newMachine(cfg)
		if err != nil {
			return nil, err
		}
		s.m = m
	}
	s.m.Reset(opts.Seed)
	s.lent = true
	return s.m, nil
}

// Release ends the current trial: the kept machine may be lent again.
func (s *MachineSlot) Release() {
	if s != nil {
		s.lent = false
	}
}
