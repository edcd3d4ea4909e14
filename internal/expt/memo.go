// The per-run setup memo: sec6, armsrace, fabricsweep and multigpu
// run one trial per condition, and every condition starts from the
// same attack setup — the run-seed machine, its discovered eviction
// sets and (for the channel experiments) its aligned set pairs. The
// memo computes each such setup once per run. The first trial that
// needs it builds it on its own machine, checkpoints the machine, and
// runs on; every other trial restores the checkpoint onto its worker's
// machine and rebinds a copy of the attacker pair to it. A restored
// machine runs byte-identically to the one that built the setup, so
// the memo is observably invisible — TestPoolingObservablyInvisible
// pins this against a run with the memo off.
package expt

import (
	"sync"

	"spybox/internal/core"
	"spybox/internal/sim"
)

// setupMemo holds one run's shared attack setups. Only setups seeded
// with the run seed go through it: those are the ones condition trials
// share by design, while a setup on a trial's own seed (fig9) is built
// once anyway and would pay for a checkpoint nobody restores.
type setupMemo struct {
	seed    uint64
	mu      sync.Mutex
	entries map[setupKey]*setupEntry
}

// setupKey is the complete input of a setup: the machine options (seed
// included) on the run's architecture, the scale that sizes discovery,
// and how many set pairs to align (0 for the attack pair alone).
type setupKey struct {
	opts    sim.Options
	arch    string
	scale   Scale
	numSets int
}

// setupEntry is one memoized setup. The first trial to need it fills
// it under once; afterwards it is only read, so any number of trials
// may restore from it concurrently. pair runs on the checkpoint cp and
// so does nothing until rebound to a live machine.
type setupEntry struct {
	once  sync.Once
	cp    *sim.Machine
	pair  *attackPair
	pairs []core.AlignedPair
	err   error
}

// newSetupMemo returns the memo for one run on seed, or nil (no
// memo) when pooling is disabled, so the pooled-determinism tests
// compare memoized runs against fully rebuilt ones.
func newSetupMemo(seed uint64) *setupMemo {
	if poolingDisabled {
		return nil
	}
	return &setupMemo{seed: seed, entries: map[setupKey]*setupEntry{}}
}

// setup returns the attack pair for p's seed on a machine of the
// trial's own and, for numSets > 0, its first numSets aligned set
// pairs. The caller owns the machine and the attackers: a memoized
// setup comes back rebound to a restored machine. The eviction sets and
// aligned pairs are shared with the memo and are only read.
func (p Params) setup(numSets int) (*attackPair, []core.AlignedPair, error) {
	key := setupKey{opts: sim.Options{Seed: p.Seed}, arch: p.Arch, scale: p.Scale, numSets: numSets}
	s := p.memo
	if s == nil || p.Seed != s.seed {
		return buildSetup(p, key)
	}
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		e = new(setupEntry)
		s.entries[key] = e
	}
	s.mu.Unlock()

	var (
		built bool
		pair  *attackPair
		pairs []core.AlignedPair
	)
	e.once.Do(func() {
		built = true
		pair, pairs, e.err = buildSetup(p, key)
		if e.err != nil {
			return
		}
		e.cp = pair.m.Checkpoint()
		e.pair = pair.rebind(e.cp)
		e.pairs = pairs
	})
	switch {
	case built:
		return pair, pairs, e.err
	case e.err != nil:
		return nil, nil, e.err
	}
	m := machineFor(p, key.opts)
	m.Restore(e.cp)
	return e.pair.rebind(m), e.pairs, nil
}

// buildSetup runs the setup from scratch on a machine from the trial's
// slot.
func buildSetup(p Params, key setupKey) (*attackPair, []core.AlignedPair, error) {
	pair, err := attackPairOn(machineFor(p, key.opts), p)
	if err != nil || key.numSets == 0 {
		return pair, nil, err
	}
	pairs, err := core.AlignChannels(pair.trojan, pair.spy, pair.trojanSets, pair.spySets, key.numSets)
	if err != nil {
		return nil, nil, err
	}
	return pair, pairs, nil
}

// rebind returns a copy of the pair on m, a machine restored from a
// checkpoint of the pair's machine: both attackers rebound, both set
// lists shared. Nothing writes an eviction set after discovery (probes
// and alignment only read its lines), so every trial may read the
// memo's sets at once.
func (a *attackPair) rebind(m *sim.Machine) *attackPair {
	return &attackPair{
		m:          m,
		trojan:     a.trojan.Rebind(m),
		spy:        a.spy.Rebind(m),
		trojanSets: a.trojanSets,
		spySets:    a.spySets,
	}
}
