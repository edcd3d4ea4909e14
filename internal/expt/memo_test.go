package expt

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"spybox/internal/core"
	"spybox/internal/sim"
)

// TestSetupMemoSharesOneSetup: condition trials on the memo's seed
// share one setup, yet each gets its own machine and attackers, and
// each transmits exactly as on a setup rebuilt from scratch (the memo
// off). The memo is a session's: a second run handed the same memo
// builds nothing and restores the first run's entries. The eviction
// sets are shared read-only and equal the rebuilt ones. The three
// trials wait for each other after setup, so all three hold their
// setups at once, one per worker: their machines must then differ.
// Parallel trials restore concurrently, which the race detector checks
// even under -short.
//
// Not t.Parallel(): it flips the package-level poolingDisabled hook.
func TestSetupMemoSharesOneSetup(t *testing.T) {
	type out struct {
		m      *sim.Machine
		trojan *core.Attacker
		sets   []core.EvictionSet
		tx     string
	}
	const seed = 7
	run := func(disabled bool, memo *SetupMemo) []out {
		poolingDisabled = disabled
		defer func() { poolingDisabled = false }()
		const trials = 3
		p := Params{Seed: seed, Scale: Small, Parallel: trials, Memo: memo}
		var inFlight sync.WaitGroup
		inFlight.Add(trials)
		outs, err := RunTrials(p, trials, func(tr Trial) (out, error) {
			tp := tr.Params
			tp.Seed = p.Seed
			pair, ch, err := setupChannel(tp, 1)
			// Every trial arrives, even a failed one, so none waits forever.
			inFlight.Done()
			inFlight.Wait()
			if err != nil {
				return out{}, err
			}
			tx, err := ch.Transmit(randomMessage(uint64(tr.Index), 4))
			if err != nil {
				return out{}, err
			}
			return out{pair.m, pair.trojan, pair.trojanSets,
				fmt.Sprint(tx.ReceivedBits, tx.Duration, tx.BitErrors)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	want := run(true, nil)
	memo := NewSetupMemo(seed)
	first := run(false, memo)
	built := map[setupKey]*setupEntry{}
	for k, e := range memo.entries {
		built[k] = e
	}
	if len(built) != 2 {
		t.Fatalf("a 1-set channel memoizes the pair and its alignment, got %d entries", len(built))
	}
	second := run(false, memo)
	if !reflect.DeepEqual(memo.entries, built) {
		t.Error("a second run on the session's memo rebuilt its setups")
	}
	for _, got := range [][]out{first, second} {
		for i := range got {
			if got[i].tx != want[i].tx {
				t.Errorf("trial %d: memoized setup transmits %s, rebuilt setup %s", i, got[i].tx, want[i].tx)
			}
			if !reflect.DeepEqual(got[i].sets, want[i].sets) {
				t.Errorf("trial %d: memoized eviction sets differ from rebuilt ones", i)
			}
			for j := range got[:i] {
				if got[i].m == got[j].m || got[i].trojan == got[j].trojan || got[i].trojan.Proc == got[j].trojan.Proc {
					t.Errorf("trials %d and %d share a machine or an attacker", j, i)
				}
			}
		}
	}
}

// TestSetupMemoOnlyRunSeed: a setup on any seed but the memo's
// bypasses the memo. The memo's seed's setup is memoized under its
// machine configuration, and an alignment is built from the pair's
// entry rather than from a second discovery.
func TestSetupMemoOnlyRunSeed(t *testing.T) {
	memo := NewSetupMemo(11)
	p := Params{Seed: 12, Scale: Small, Memo: memo}
	if _, err := setupAttackPair(p); err != nil {
		t.Fatal(err)
	}
	if len(memo.entries) != 0 {
		t.Fatalf("a trial-seeded setup went through the memo: %d entries", len(memo.entries))
	}
	p.Seed = 11
	if _, err := setupAttackPair(p); err != nil {
		t.Fatal(err)
	}
	cfg, err := sim.Options{MIGPartitions: 1}.Config() // the P100 spelled otherwise
	if err != nil {
		t.Fatal(err)
	}
	key := setupKey{cfg: cfg, scale: Small}
	pairEntry := memo.entries[key]
	if len(memo.entries) != 1 || pairEntry == nil || pairEntry.cp == nil {
		t.Fatalf("run-seed setup not memoized under its configuration: %v", memo.entries)
	}
	if _, _, err := setupChannel(p, 2); err != nil {
		t.Fatal(err)
	}
	aligned := memo.entries[setupKey{cfg: cfg, scale: Small, numSets: 2}]
	if len(memo.entries) != 2 || aligned == nil || aligned.cp == nil || memo.entries[key] != pairEntry {
		t.Fatalf("the 2-set alignment is not one entry beside the kept pair: %v", memo.entries)
	}
	if pairEntry.used <= aligned.used {
		t.Error("building the alignment did not restore the pair's entry")
	}
}

// TestMIGStockTrialRestoresPair: mig's stock machine is the run's own
// configuration, so its trial restores the attack pair a session
// already memoized, and the partitioned trial (another configuration)
// leaves the memo alone. The report is the one a run without a memo
// renders.
func TestMIGStockTrialRestoresPair(t *testing.T) {
	const seed = 20230612
	render := func(memo *SetupMemo) []byte {
		return renderExperiment(t, "mig", Params{Seed: seed, Scale: Small, Parallel: 1, Memo: memo})
	}
	memo := NewSetupMemo(seed)
	if _, err := setupAttackPair(Params{Seed: seed, Scale: Small, Memo: memo}); err != nil {
		t.Fatal(err)
	}
	if len(memo.entries) != 1 {
		t.Fatalf("want the pair's entry alone, got %d entries", len(memo.entries))
	}
	var pair *setupEntry
	for _, e := range memo.entries {
		pair = e
	}
	used := pair.used
	got := render(memo)
	if len(memo.entries) != 1 || pair.used == used {
		t.Errorf("mig's stock trial did not restore the memoized pair (%d entries, pair last used %d, before %d)",
			len(memo.entries), pair.used, used)
	}
	if want := render(nil); !bytes.Equal(got, want) {
		t.Errorf("mig on a session's memo diverges from a run without one:\n%s\nvs\n%s", got, want)
	}
}

// TestSetupMemoBounded: a session running more distinct setups than
// the memo holds keeps at most maxSetups entries, drops the least
// recently used, and rebuilds a dropped setup to the same bytes: every
// report equals the one a fresh session renders.
func TestSetupMemoBounded(t *testing.T) {
	const seed = 20230612
	runs := []struct {
		id, arch string
	}{
		// The P100 pair and its 1-, 2-, 4- and 8-set alignments.
		{"fig10", ""}, {"sec7", ""}, {"multigpu", ""},
		// Three more entries: the P100 1-set alignment is dropped.
		{"fig10", "a100-class"}, {"sec7", "a100-class"},
		// The 1-set alignment is rebuilt on demand.
		{"fig10", ""},
	}
	render := func(id, arch string, memo *SetupMemo) []byte {
		return renderExperiment(t, id, Params{Seed: seed, Scale: Small, Parallel: 1, Arch: arch, Memo: memo})
	}
	memo := NewSetupMemo(seed)
	seen := map[setupKey]*setupEntry{}
	rebuilt := 0
	for i, run := range runs {
		got := render(run.id, run.arch, memo)
		if n := len(memo.entries); n > maxSetups {
			t.Fatalf("run %d (%s on %q): memo holds %d entries, cap %d", i, run.id, run.arch, n, maxSetups)
		}
		for k, e := range memo.entries {
			if old := seen[k]; old != nil && old != e {
				rebuilt++
			}
			seen[k] = e
		}
		if want := render(run.id, run.arch, NewSetupMemo(seed)); !bytes.Equal(got, want) {
			t.Errorf("run %d (%s on %q): report diverges from a fresh session's", i, run.id, run.arch)
		}
	}
	if len(seen) <= maxSetups || rebuilt == 0 {
		t.Fatalf("%d distinct setups ran and %d were rebuilt; the test needs more than %d and a rebuild",
			len(seen), rebuilt, maxSetups)
	}
}

// renderExperiment runs the registered experiment id with p and
// returns its text report.
func renderExperiment(t *testing.T, id string, p Params) []byte {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	r, err := e.Run(p)
	if err != nil {
		t.Fatalf("%s on %q: %v", id, p.Arch, err)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	return buf.Bytes()
}
