package expt

import (
	"fmt"
	"reflect"
	"testing"

	"spybox/internal/core"
	"spybox/internal/sim"
)

// TestSetupMemoSharesOneSetup: condition trials on the run seed share
// one setup, yet each gets its own machine and attackers, and each
// transmits exactly as on a setup rebuilt from scratch (the memo off).
// The eviction sets are shared read-only and equal the rebuilt ones.
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
	run := func(disabled bool) []out {
		poolingDisabled = disabled
		defer func() { poolingDisabled = false }()
		p := Params{Seed: 7, Scale: Small, Parallel: 3}
		outs, err := RunTrials(p, 3, func(tr Trial) (out, error) {
			tp := tr.Params
			tp.Seed = p.Seed
			pair, ch, err := setupChannel(tp, 1)
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
	want, got := run(true), run(false)
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

// TestSetupMemoOnlyRunSeed: a setup on any seed but the run's bypasses
// the memo, and the run seed's setup is memoized under its complete
// key.
func TestSetupMemoOnlyRunSeed(t *testing.T) {
	memo := &setupMemo{seed: 11, entries: map[setupKey]*setupEntry{}}
	p := Params{Seed: 12, Scale: Small, memo: memo}
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
	key := setupKey{opts: sim.Options{Seed: 11}, scale: Small}
	if e := memo.entries[key]; len(memo.entries) != 1 || e == nil || e.cp == nil {
		t.Fatalf("run-seed setup not memoized under %+v: %v", key, memo.entries)
	}
}
