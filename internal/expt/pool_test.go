package expt

import (
	"bytes"
	"runtime"
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
// memoized attack setup per run (skipped under -short).
//
// Not t.Parallel(): it flips the package-level poolingDisabled hook.
func TestPoolingObservablyInvisible(t *testing.T) {
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
