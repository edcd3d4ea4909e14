package expt

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
)

// TestPoolingObservablyInvisible runs trial-decomposed experiments
// with machine reuse and the setup memo on (the default) and forced
// off, serial and parallel, and demands byte-identical rendered
// reports. This is the contract that lets the runner reuse machines
// and setups at all: a trial on a reused machine, or on a restored
// setup, must be indistinguishable from one on a fresh box. Fig11
// reuses across trial seeds; Pairs reuses across trials that share
// the run seed; sec6, armsrace, fabricsweep and multigpu restore one
// memoized attack setup per run (skipped under -short). The session
// case shares one memo across experiments, as a spybox.Session does.
//
// Not t.Parallel(): it flips the package-level poolingDisabled hook.
func TestPoolingObservablyInvisible(t *testing.T) {
	t.Run("session", testSessionMemoInvisible)
	for _, e := range []struct {
		name  string
		run   func(Params) (*Result, error)
		heavy bool
	}{
		{"fig11", Fig11, false},
		{"pairs", Pairs, false},
		{"sec6", SecVI, true},
		{"armsrace", ArmsRace, true},
		{"fabricsweep", FabricSweep, true},
		{"multigpu", MultiGPU, true},
	} {
		t.Run(e.name, func(t *testing.T) {
			if e.heavy && testing.Short() {
				t.Skip("a full run of each condition; skipped under -short")
			}
			render := func(parallel int, disabled bool) []byte {
				poolingDisabled = disabled
				defer func() { poolingDisabled = false }()
				r, err := e.run(Params{Seed: 20230612, Scale: Small, Parallel: parallel})
				if err != nil {
					t.Fatalf("%s parallel=%d pooling-disabled=%t: %v", e.name, parallel, disabled, err)
				}
				var buf bytes.Buffer
				r.Print(&buf)
				return buf.Bytes()
			}
			want := render(1, true) // fresh machines, serial: the reference
			for _, tc := range []struct {
				name     string
				parallel int
			}{
				{"pooled-serial", 1},
				{"pooled-parallel", 4},
			} {
				if got := render(tc.parallel, false); !bytes.Equal(got, want) {
					t.Errorf("%s %s: report diverges from fresh-machine run (%d vs %d bytes)",
						e.name, tc.name, len(got), len(want))
				}
			}
		})
	}
}

// TestPairsReusesMachine bounds what the pair sweep allocates: its 56
// trials share one configuration, so a serial run builds one machine
// and resets it for every other pair. Building each pair's machine
// fresh allocates several hundred megabytes.
//
// Not t.Parallel(): TotalAlloc counts every goroutine's allocations.
func TestPairsReusesMachine(t *testing.T) {
	const limit = 64 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Pairs(Params{Seed: 20230612, Scale: Small, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("pairs allocated %d MB at -parallel 1, want under %d MB", got>>20, limit>>20)
	}
}

// testSessionMemoInvisible runs the experiments that share the run
// seed's attack setup in one session — one setup memo handed to every
// run, as spybox.Session.RunJob does — once in paper order and once in
// reverse, so each experiment meets the memo both cold and holding
// every other experiment's entries. Every report must equal the one
// rendered with pooling off, and the one the experiment renders alone
// in a fresh session.
func testSessionMemoInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("eight covert experiments, four times over; skipped under -short")
	}
	const seed = 20230612
	ids := []string{"fig5", "fig7", "fig10", "sec6", "sec7", "mig", "multigpu", "armsrace"}
	render := func(id string, memo *SetupMemo) []byte {
		return renderExperiment(t, id, Params{Seed: seed, Scale: Small, Parallel: 2, Memo: memo})
	}
	session := func(order []string, disabled bool) map[string][]byte {
		poolingDisabled = disabled
		defer func() { poolingDisabled = false }()
		memo := NewSetupMemo(seed)
		out := map[string][]byte{}
		for _, id := range order {
			out[id] = render(id, memo)
		}
		return out
	}
	reversed := slices.Clone(ids)
	slices.Reverse(reversed)
	want := session(ids, true) // no memo, no reuse: the reference
	for _, run := range []struct {
		name string
		out  map[string][]byte
	}{
		{"paper order", session(ids, false)},
		{"reverse order", session(reversed, false)},
	} {
		for _, id := range ids {
			if !bytes.Equal(run.out[id], want[id]) {
				t.Errorf("%s, %s: report diverges from the run with pooling off (%d vs %d bytes)",
					run.name, id, len(run.out[id]), len(want[id]))
			}
		}
	}
	for _, id := range ids {
		if got := render(id, NewSetupMemo(seed)); !bytes.Equal(got, want[id]) {
			t.Errorf("%s alone in a fresh session: report diverges from the run with pooling off", id)
		}
	}
}
