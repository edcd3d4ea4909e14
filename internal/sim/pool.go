// Machine reuse: trial runners would burn most of their time building
// fresh boxes (a DGX-2's L2 arrays alone are hundreds of thousands of
// way slots), yet every machine built from the same Options differs
// only by seed — which Reset rewinds in place. A MachineSlot keeps one
// machine for one trial worker and lends it, reset, to the worker's
// next trial with the same Options fingerprint, turning the per-trial
// cost from "allocate a box" into "memclr a box".
package sim

import "fmt"

// fingerprint returns a pooling key for the options and whether the
// options are poolable at all. The key covers everything that shapes a
// machine except the seed (Reset replaces the seed). Options carrying
// a caller-provided Topology are not poolable: the topology is shared
// mutable state, so two machines built from it would alias fabric
// counters and port clocks.
func (o Options) fingerprint() (string, bool) {
	if o.Topology != nil {
		return "", false
	}
	name := "<default>"
	var prof string
	if o.Profile != nil {
		name = o.Profile.Name
		prof = fmt.Sprintf("%+v", *o.Profile)
	}
	return fmt.Sprintf("%s|%s|%+v|noise=%t|cont=%g|mig=%d",
		name, prof, o.CacheCfg, o.NoiseOff, o.ContentionSigmaPer, o.MIGPartitions), true
}

// MachineSlot keeps one machine across the trials of one worker. It
// is not safe for concurrent use: each trial worker owns its slot, and
// only that worker's trials reach it. The zero value is ready to use.
type MachineSlot struct {
	m    *Machine
	key  string
	lent bool // m is in use by the current trial
}

// Get returns a machine built from opts. The kept machine is lent,
// reset to opts.Seed, when its fingerprint matches and the current
// trial does not hold it yet; any other request builds a new machine,
// which a free slot keeps in place of the old one. A second request
// within one trial therefore gets its own machine, so two live
// machines never alias. A nil slot and unpoolable options always build.
func (s *MachineSlot) Get(opts Options) (*Machine, error) {
	if s == nil || s.lent {
		return NewMachine(opts)
	}
	key, ok := opts.fingerprint()
	if !ok {
		return NewMachine(opts)
	}
	if s.m != nil && key == s.key {
		s.m.Reset(opts.Seed)
	} else {
		m, err := NewMachine(opts)
		if err != nil {
			return nil, err
		}
		s.m, s.key = m, key
	}
	s.lent = true
	return s.m, nil
}

// Release ends the current trial: the kept machine may be lent again.
func (s *MachineSlot) Release() {
	if s != nil {
		s.lent = false
	}
}
