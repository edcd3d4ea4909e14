package expt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenExperiments are the reports frozen in testdata: one timing
// characterization, one geometry reverse-engineering, and one covert
// transmission — the three layers the Profile refactor must not move
// by a single byte on the paper's machine.
var goldenExperiments = []string{"fig4", "table1", "fig10"}

// TestGoldenP100 asserts that the p100-dgx1 profile (requested
// explicitly, the way `spybox run -arch p100-dgx1` does) reproduces
// the pre-Profile-refactor reports byte-for-byte at the default seed.
// testdata/golden_p100_small.txt was generated by the pre-refactor
// code; regenerating it with -update defeats the test's purpose
// unless the output change is intended and reviewed.
func TestGoldenP100(t *testing.T) {
	t.Parallel()
	checkGolden(t, "p100-dgx1", goldenExperiments, "golden_p100_small.txt")
}

// goldenV100Experiments freeze the two-stage fabric's output: the
// Sec. VII detector with per-plane localization and the port-
// contention sweep. Anything that moves a queue delay, a plane
// counter, or a stage latency shows up here first.
var goldenV100Experiments = []string{"sec7", "fabricsweep"}

// TestGoldenV100 pins the v100-dgx2 (NVSwitch two-stage fabric)
// reports byte-for-byte at the default seed, the way TestGoldenP100
// pins the paper's machine. Regenerate with -update only when an
// output change is intended and reviewed.
func TestGoldenV100(t *testing.T) {
	if testing.Short() {
		t.Skip("v100 golden run re-runs the full attack setup five times; skipped in -short CI runs")
	}
	t.Parallel()
	checkGolden(t, "v100-dgx2", goldenV100Experiments, "golden_v100_small.txt")
}

// goldenMLPExperiments are the model-extraction chain (Sec. V-B):
// per-set miss histograms, the Table II averages and extraction
// decision, the two memorygrams, and the two-epoch run whose
// final_loss row pins the victim's host-side training.
var goldenMLPExperiments = []string{"fig13", "table2", "fig14", "fig15"}

// TestGoldenMLP pins the MLP victim's reports byte-for-byte at the
// default seed on the paper's machine. The victim's device traffic
// and its host-side SGD must both stay put: the first shows in every
// miss count, the second in fig15's final_loss.
func TestGoldenMLP(t *testing.T) {
	t.Parallel()
	checkGolden(t, "p100-dgx1", goldenMLPExperiments, "golden_mlp_small.txt")
}

// goldenSharedSeedExperiments are the trial-decomposed experiments
// whose trials deliberately share the run seed (each condition, pair,
// partition or profile rebuilds the same box): the Sec. VI defense
// conditions, MIG partitions, the GPU-pair sweep, the multi-GPU
// configurations and the architecture sweep.
var goldenSharedSeedExperiments = []string{"sec6", "mig", "pairs", "multigpu", "archsweep"}

// TestGoldenSharedSeed pins those reports byte-for-byte at the default
// seed on the paper's machine, so a change in how their trials build
// machines cannot move a byte unnoticed.
func TestGoldenSharedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("shared-seed golden run re-runs the full attack setup for every sec6 condition; skipped in -short CI runs")
	}
	t.Parallel()
	checkGolden(t, "p100-dgx1", goldenSharedSeedExperiments, "golden_shared_seed_small.txt")
}

// checkGolden runs ids serially at small scale and the default seed on
// arch and compares their concatenated text reports with
// testdata/<file>, or rewrites that file under -update.
func checkGolden(t *testing.T, arch string, ids []string, file string) {
	t.Helper()
	p := Params{Seed: 20230612, Scale: Small, Parallel: 1, Arch: arch}
	var buf bytes.Buffer
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		r, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		r.Print(&buf)
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s output diverged from %s.\n"+
			"got %d bytes, want %d; first divergence near byte %d",
			arch, path, buf.Len(), len(want), firstDiff(buf.Bytes(), want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
