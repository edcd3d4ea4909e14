// The setup memo: most covert experiments start from the same attack
// setup — the run-seed machine, its discovered eviction sets and, for
// the channel experiments, its aligned set pairs. fig5, fig7, fig10,
// sec6, sec7, mig, multigpu and armsrace all discover the same pair,
// sec6, sec7 and armsrace align the same two set pairs on it, and two
// of multigpu's configurations the same four; the condition trials of
// sec6, armsrace, fabricsweep and multigpu each start from it again. The memo computes each such setup once. The
// first trial that needs it builds it on its own machine, checkpoints
// the machine, and runs on; every later one restores the checkpoint
// onto its own machine and rebinds a copy of the attacker pair to it.
// A restored machine runs byte-identically to the one that built the
// setup, so the memo is observably invisible — TestPoolingObservablyInvisible
// pins this against runs with the memo off.
//
// A spybox.Session owns one memo for its lifetime, so the experiments
// of one session share it; RunTrials gives a run without one a memo of
// its own, dropped when the run returns.
package expt

import (
	"sync"

	"spybox/internal/core"
	"spybox/internal/sim"
)

// maxSetups caps a memo's live entries. A p100 session's covert chain
// needs seven: the attack pair and its 1-, 2-, 4- and 8-set alignments
// (fig10; sec6, sec7 and armsrace; multigpu), and fabricsweep's pair
// and 2-set alignment on its switch-fabric box. Past the cap the least
// recently used entry is dropped, and rebuilt, byte-identically, if it
// is needed again.
const maxSetups = 7

// SetupMemo holds shared attack setups. Only setups seeded with the
// memo's seed go through it: those are the ones experiments and
// condition trials share by design, while a setup on a trial's own
// seed (fig9) is built once anyway and would pay for a checkpoint
// nobody restores. It is safe for concurrent use.
type SetupMemo struct {
	seed    uint64
	mu      sync.Mutex
	entries map[setupKey]*setupEntry
	clock   uint64 // lookups so far; stamps each entry's last use
}

// NewSetupMemo returns an empty memo for setups seeded with seed.
func NewSetupMemo(seed uint64) *SetupMemo {
	return &SetupMemo{seed: seed, entries: map[setupKey]*setupEntry{}}
}

// setupKey is the complete input of a setup besides the memo's seed:
// the machine's configuration (so two spellings of one machine share
// an entry), the scale that sizes discovery, and how many set pairs to
// align (0 for the attack pair alone).
type setupKey struct {
	cfg     sim.Config
	scale   Scale
	numSets int
}

// setupEntry is one memoized setup. The first trial to need it fills
// it under once; afterwards it is only read, so any number of trials
// may restore from it concurrently. pair is detached from every
// machine until rebound to a restored one.
type setupEntry struct {
	once  sync.Once
	used  uint64 // memo clock at the last lookup, under the memo's mu
	cp    *sim.Checkpoint
	pair  *attackPair
	pairs []core.AlignedPair
	err   error
}

// lookup returns key's entry, creating it — and dropping the least
// recently used entry when the memo is full — if there is none.
func (s *SetupMemo) lookup(key setupKey) *setupEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	e := s.entries[key]
	if e == nil {
		if len(s.entries) >= maxSetups {
			var lru setupKey
			oldest := s.clock
			// Every lookup stamps one entry with a fresh clock value, so
			// the oldest stamp is unique whatever the visiting order.
			//spylint:allow detrand the least recently used entry is unique, so iteration order cannot pick another
			for k, old := range s.entries {
				if old.used < oldest {
					lru, oldest = k, old.used
				}
			}
			delete(s.entries, lru)
		}
		e = new(setupEntry)
		s.entries[key] = e
	}
	e.used = s.clock
	return e
}

// setup returns the attack pair for p's seed on a machine of the
// trial's own and, for numSets > 0, its first numSets aligned set
// pairs. The caller owns the machine and the attackers: a memoized
// setup comes back rebound to a restored machine. The eviction sets and
// aligned pairs are shared with the memo and are only read.
//
// An aligned setup is built from the pair's entry: it restores (or
// builds) the pair and aligns from there, so every alignment of one
// machine shares a single discovery.
func (p Params) setup(numSets int) (*attackPair, []core.AlignedPair, error) {
	opts := sim.Options{Seed: p.Seed}
	s := p.Memo
	if s == nil || poolingDisabled || p.Seed != s.seed {
		return buildSetup(p, opts, numSets)
	}
	prof := p.mustProfile()
	cfg, err := sim.Options{Profile: &prof}.Config()
	if err != nil {
		return nil, nil, err
	}
	e := s.lookup(setupKey{cfg: cfg, scale: p.Scale, numSets: numSets})

	var (
		built bool
		pair  *attackPair
		pairs []core.AlignedPair
	)
	e.once.Do(func() {
		built = true
		if numSets == 0 {
			pair, e.err = attackPairOn(machineFor(p, opts), p)
		} else if pair, _, e.err = p.setup(0); e.err == nil {
			pairs, e.err = pair.align(numSets)
		}
		if e.err != nil {
			return
		}
		e.cp = pair.m.Checkpoint()
		e.pair = pair.rebind(nil)
		e.pairs = pairs
	})
	switch {
	case built:
		return pair, pairs, e.err
	case e.err != nil:
		return nil, nil, e.err
	}
	m := machineFor(p, opts)
	m.Restore(e.cp)
	return e.pair.rebind(m), e.pairs, nil
}

// buildSetup runs the setup from scratch on a machine from the trial's
// slot.
func buildSetup(p Params, opts sim.Options, numSets int) (*attackPair, []core.AlignedPair, error) {
	pair, err := attackPairOn(machineFor(p, opts), p)
	if err != nil || numSets == 0 {
		return pair, nil, err
	}
	pairs, err := pair.align(numSets)
	if err != nil {
		return nil, nil, err
	}
	return pair, pairs, nil
}

// align aligns the pair's first numSets eviction-set pairs.
func (a *attackPair) align(numSets int) ([]core.AlignedPair, error) {
	return core.AlignChannels(a.trojan, a.spy, a.trojanSets, a.spySets, numSets)
}

// rebind returns a copy of the pair on m, a machine restored from a
// checkpoint of the pair's machine (nil detaches the copy): both
// attackers rebound, both set lists shared. Nothing writes an eviction
// set after discovery (probes and alignment only read its lines), so
// every trial may read the memo's sets at once.
func (a *attackPair) rebind(m *sim.Machine) *attackPair {
	return &attackPair{
		m:          m,
		trojan:     a.trojan.Rebind(m),
		spy:        a.spy.Rebind(m),
		trojanSets: a.trojanSets,
		spySets:    a.spySets,
	}
}
