package main

import (
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// detExemptions lists every spybox-internal dependency of the
// experiment runner that is deliberately OUTSIDE spylint's detrand
// deterministic-package set, each with the reason. The meta-test below
// pins the three-way split: every internal package reachable from
// internal/expt (the package the golden byte-identity tests execute)
// is either in spylint's list or in this map — so adding a new
// simulation package forces a decision, and a stale spylint list fails
// loudly instead of silently checking nothing.
var detExemptions = map[string]string{
	"spybox/internal/arch":     "constants and pure value types; nothing to perturb",
	"spybox/internal/xrand":    "the randomness source itself; seeded determinism is its own contract, pinned by its statistical tests",
	"spybox/internal/cudart":   "thin veneer over sim workers; determinism is inherited, and probe buffers are caller-owned",
	"spybox/internal/victim":   "victim programs execute on sim workers; their determinism is the simulator's",
	"spybox/internal/plot":     "renders reports after trials complete; droppederr covers it instead",
	"spybox/pkg/spybox/report": "result container shared with the service layer; droppederr covers it instead",
}

// TestDetPackagesMatchGoldenCoverage cross-checks spylint's determinism
// scope against the real import graph of the golden-tested experiments.
func TestDetPackagesMatchGoldenCoverage(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}

	// spylint's list, from the tool itself (not a copy that could drift).
	out, err := exec.Command("go", "run", "-C", "scripts/spylint", ".", "-det-packages").Output()
	if err != nil {
		t.Fatalf("go run scripts/spylint -det-packages: %v", err)
	}
	detList := strings.Fields(string(out))
	if len(detList) == 0 {
		t.Fatal("spylint -det-packages printed nothing")
	}
	det := map[string]bool{}
	for _, p := range detList {
		det[p] = true
	}

	// The packages the golden byte-identity tests actually execute:
	// everything internal/expt (their entry point) depends on.
	out, err = exec.Command("go", "list", "-deps", "./internal/expt").Output()
	if err != nil {
		t.Fatalf("go list -deps ./internal/expt: %v", err)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		if strings.HasPrefix(p, "spybox/") {
			deps[p] = true
		}
	}

	var problems []string
	for p := range det {
		if !deps[p] {
			problems = append(problems, p+": in spylint's deterministic set but not reachable from internal/expt (stale entry?)")
		}
		if detExemptions[p] != "" {
			problems = append(problems, p+": listed both deterministic and exempt")
		}
	}
	for p := range deps {
		if !det[p] && detExemptions[p] == "" {
			problems = append(problems, p+": reachable from the golden-tested experiments but neither in spylint's deterministic set nor exempted here — decide which and record it")
		}
	}
	for p := range detExemptions {
		if !deps[p] {
			problems = append(problems, p+": exempted but no longer a dependency of internal/expt (stale exemption)")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
