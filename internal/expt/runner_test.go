package expt

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestTrialSeedDistinctAndStable(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := TrialSeed(20230612, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("TrialSeed collision: trials %d and %d -> %#x", prev, i, s)
		}
		seen[s] = i
		if s != TrialSeed(20230612, i) {
			t.Fatalf("TrialSeed(%d) not stable", i)
		}
	}
	if TrialSeed(1, 0) == TrialSeed(2, 0) {
		t.Error("different run seeds gave the same trial seed")
	}
}

func TestRunTrialsOrderAndSeeds(t *testing.T) {
	p := Params{Seed: 42, Scale: Small, Parallel: 4}
	out, err := RunTrials(p, 17, func(tr Trial) ([2]uint64, error) {
		if tr.Params.Parallel != 1 {
			t.Errorf("trial %d sees Parallel=%d, want 1 (no nested fan-out)", tr.Index, tr.Params.Parallel)
		}
		return [2]uint64{uint64(tr.Index), tr.Params.Seed}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o[0] != uint64(i) {
			t.Errorf("slot %d holds trial %d: merge order broken", i, o[0])
		}
		if o[1] != TrialSeed(42, i) {
			t.Errorf("trial %d ran with seed %#x, want TrialSeed-derived %#x", i, o[1], TrialSeed(42, i))
		}
	}
}

func TestRunTrialsLowestError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("boom %d", i) }
	for _, parallel := range []int{1, 8} {
		p := Params{Seed: 7, Scale: Small, Parallel: parallel}
		_, err := RunTrials(p, 12, func(tr Trial) (int, error) {
			if tr.Index == 3 || tr.Index == 9 {
				return 0, boom(tr.Index)
			}
			return tr.Index, nil
		})
		if err == nil || !strings.Contains(err.Error(), "trial 3") || !strings.Contains(err.Error(), "boom 3") {
			t.Errorf("parallel=%d: got %v, want the lowest-indexed failure (trial 3)", parallel, err)
		}
	}
}

func TestOneTrialPreservesSeed(t *testing.T) {
	var got uint64
	run := OneTrial(func(p Params) (*Result, error) {
		got = p.Seed
		return newResult("x", "x"), nil
	})
	if _, err := run(Params{Seed: 99, Scale: Small, Parallel: 8}); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Errorf("OneTrial derived the seed (%d), want the run seed 99 untouched", got)
	}
}

func TestOneTrialPropagatesError(t *testing.T) {
	sentinel := errors.New("nope")
	run := OneTrial(func(Params) (*Result, error) { return nil, sentinel })
	if _, err := run(smallParams()); !errors.Is(err, sentinel) {
		t.Errorf("got %v, want wrapped sentinel", err)
	}
}

// TestParallelDeterminism is the runner's core guarantee: the same
// seed produces an identical Result — report text, metrics, series,
// and artifacts — whether trials run serially or 8 wide.
func TestParallelDeterminism(t *testing.T) {
	cases := []struct {
		id    string
		run   func(Params) (*Result, error)
		arch  string // architecture profile; empty means p100-dgx1
		heavy bool   // skipped under -short; the five light cases always run
	}{
		{"fig9", Fig9, "", false},
		{"fig11", Fig11, "", false},
		{"table2", TableII, "", false},
		{"mig", MIG, "", false},
		{"pairs", Pairs, "", false},
		{"archsweep", ArchSweep, "", true},
		// The switch-fabric cases: port-queue state is per-machine and
		// arrival-ordered by the engine, so contention delays must not
		// vary with the worker-pool size either.
		{"fabricsweep", FabricSweep, "", true},
		{"sec7-v100", SecVII, "v100-dgx2", true},
		// The arms-race game threads one xrand stream through policy
		// decisions, payload draws, and sampler seeds across every
		// round, so any worker-pool leakage would scramble a trace.
		{"armsrace", ArmsRace, "", true},
		{"armsrace-v100", ArmsRace, "v100-dgx2", true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			if c.heavy && testing.Short() {
				t.Skip("heavy determinism case skipped in -short CI runs")
			}
			t.Parallel()
			render := func(parallel int) (string, map[string]float64, map[string][]byte) {
				r, err := c.run(Params{Seed: 20230612, Scale: Small, Parallel: parallel, Arch: c.arch})
				if err != nil {
					t.Fatalf("parallel=%d: %v", parallel, err)
				}
				var sb strings.Builder
				r.Print(&sb)
				return sb.String(), r.Metrics, r.Artifacts
			}
			rep1, met1, art1 := render(1)
			rep8, met8, art8 := render(8)
			if rep1 != rep8 {
				t.Errorf("reports differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s", rep1, rep8)
			}
			if !reflect.DeepEqual(met1, met8) {
				t.Errorf("metrics differ: serial %v, parallel %v", met1, met8)
			}
			if len(art1) != len(art8) {
				t.Fatalf("artifact sets differ: %d vs %d", len(art1), len(art8))
			}
			for name, data := range art1 {
				if !bytes.Equal(data, art8[name]) {
					t.Errorf("artifact %s differs between parallelism levels", name)
				}
			}
		})
	}
}
