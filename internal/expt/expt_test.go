package expt

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"spybox/internal/arch"
)

// smallParams runs every experiment at test scale.
func smallParams() Params { return Params{Seed: 20230612, Scale: Small} }

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"small": Small, "default": Default, "": Default, "paper": Paper} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Errorf("incomplete registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("fig9"); !ok {
		t.Error("fig9 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus ID found")
	}
}

func TestFig4(t *testing.T) {
	t.Parallel()
	r, err := Fig4(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	// The four characterized clusters must be ordered and separated.
	lb, rb := r.Metrics["local_boundary"], r.Metrics["remote_boundary"]
	if !(lb > 268 && lb < 440) {
		t.Errorf("local boundary %v out of range", lb)
	}
	if !(rb > 630 && rb < 950) {
		t.Errorf("remote boundary %v out of range", rb)
	}
}

func TestFig5(t *testing.T) {
	t.Parallel()
	r, err := Fig5(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["eviction_step_local"]; got != 16 {
		t.Errorf("local eviction step %v, want 16", got)
	}
	if got := r.Metrics["eviction_step_remote"]; got != 16 {
		t.Errorf("remote eviction step %v, want 16", got)
	}
}

func TestTableI(t *testing.T) {
	t.Parallel()
	r, err := TableI(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["sets"] != 2048 || r.Metrics["ways"] != 16 ||
		r.Metrics["line_size"] != 128 || r.Metrics["cache_bytes"] != 4<<20 ||
		r.Metrics["policy_lru"] != 1 {
		t.Errorf("Table I mismatch: %v", r.Metrics)
	}
}

func TestFig7(t *testing.T) {
	t.Parallel()
	r, err := Fig7(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["aligned_fraction"] != 1 {
		t.Errorf("aligned fraction %v, want 1", r.Metrics["aligned_fraction"])
	}
	if r.Metrics["matched_avg_cycles"] <= r.Metrics["unmatched_avg_cycles"] {
		t.Error("matched sets should show higher probe latency")
	}
}

func TestFig9(t *testing.T) {
	t.Parallel()
	r, err := Fig9(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["best_bandwidth_MBps"] <= 0 {
		t.Error("no bandwidth achieved")
	}
	if r.Metrics["error_at_1_set_pct"] > 10 {
		t.Errorf("single-set error %v%% too high", r.Metrics["error_at_1_set_pct"])
	}
	// Bandwidth must rise with parallel sets (the paper's key curve).
	bw := r.Series[0]
	if bw.Y[len(bw.Y)-1] <= bw.Y[0] {
		t.Errorf("bandwidth did not rise with sets: %v", bw.Y)
	}
}

func TestFig10(t *testing.T) {
	t.Parallel()
	r, err := Fig10(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	z, o := r.Metrics["zero_level_cycles"], r.Metrics["one_level_cycles"]
	if !(z > 550 && z < 800) {
		t.Errorf("'0' level %v, want ~630", z)
	}
	if !(o > 800 && o < 1200) {
		t.Errorf("'1' level %v, want ~950", o)
	}
	if r.Metrics["bit_error_rate"] > 0.05 {
		t.Errorf("bit error rate %v too high", r.Metrics["bit_error_rate"])
	}
	joined := strings.Join(r.Lines(), "\n")
	if !strings.Contains(joined, "Hello! How are you?") {
		t.Error("message not in report")
	}
}

func TestFig11(t *testing.T) {
	t.Parallel()
	r, err := Fig11(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"vectoradd", "histogram", "matmul"} {
		if r.Metrics["total_misses_"+name] <= 0 {
			t.Errorf("%s memorygram is dark", name)
		}
	}
}

func TestFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 collects 144 fingerprint samples; skipped in -short CI runs")
	}
	t.Parallel()
	r, err := Fig12(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if acc := r.Metrics["test_accuracy"]; acc < 0.6 {
		t.Errorf("fingerprinting accuracy %.2f too low even at small scale", acc)
	}
}

func TestFig13(t *testing.T) {
	t.Parallel()
	r, err := Fig13(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["total_misses_h512"] <= r.Metrics["total_misses_h64"] {
		t.Errorf("misses did not grow with hidden width: %v", r.Metrics)
	}
}

func TestTableII(t *testing.T) {
	t.Parallel()
	r, err := TableII(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["monotone_in_hidden"] != 1 {
		t.Errorf("average misses not monotone in hidden width: %v", r.Metrics)
	}
	if r.Metrics["extraction_correct"] < 3 {
		t.Errorf("model extraction recovered only %v/4", r.Metrics["extraction_correct"])
	}
}

func TestFig14(t *testing.T) {
	t.Parallel()
	r, err := Fig14(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["total_misses_h512"] <= r.Metrics["total_misses_h128"] {
		t.Error("512-neuron memorygram not denser than 128")
	}
}

func TestFig15(t *testing.T) {
	t.Parallel()
	r, err := Fig15(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["epochs_detected"] != r.Metrics["epochs_true"] {
		t.Errorf("detected %v epochs, trained %v", r.Metrics["epochs_detected"], r.Metrics["epochs_true"])
	}
}

func TestSecVI(t *testing.T) {
	t.Parallel()
	r, err := SecVI(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	quiet, noisy, blocked := r.Metrics["error_quiet_pct"], r.Metrics["error_noisy_pct"], r.Metrics["error_blocked_pct"]
	if noisy <= quiet {
		t.Errorf("noise did not degrade the channel: quiet %v%%, noisy %v%%", quiet, noisy)
	}
	if blocked >= noisy {
		t.Errorf("occupancy blocking did not help: noisy %v%%, blocked %v%%", noisy, blocked)
	}
	if r.Metrics["noise_blocks_with_blocking"] != 0 {
		t.Errorf("%v noise blocks placed despite blocking", r.Metrics["noise_blocks_with_blocking"])
	}
}

// TestSecVIHonoursArch: every sec6 condition builds its machine on the
// run's architecture, so the DGX-2 report differs from the DGX-1 one.
func TestSecVIHonoursArch(t *testing.T) {
	if testing.Short() {
		t.Skip("sec6 on two profiles re-runs the full attack setup six times; skipped in -short CI runs")
	}
	t.Parallel()
	render := func(archName string) string {
		p := smallParams()
		p.Arch = archName
		r, err := SecVI(p)
		if err != nil {
			t.Fatalf("%s: %v", archName, err)
		}
		var b strings.Builder
		r.Print(&b)
		return b.String()
	}
	if p100, v100 := render("p100-dgx1"), render("v100-dgx2"); p100 == v100 {
		t.Fatalf("sec6 ignored -arch: the v100-dgx2 report equals the p100-dgx1 one:\n%s", v100)
	}
}

func TestSecVII(t *testing.T) {
	t.Parallel()
	r, err := SecVII(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["detected_covert channel active"]; got != 1 {
		t.Fatalf("covert channel not detected: detected = %v, median rate %v txns/Mcy",
			got, r.Metrics["median_rate_covert channel active"])
	}
	if got := r.Metrics["detected_benign (victims + bulk P2P)"]; got != 0 {
		t.Fatalf("false positive on benign workload: detected = %v, median rate %v txns/Mcy",
			got, r.Metrics["median_rate_benign (victims + bulk P2P)"])
	}
	if got := r.Metrics["detected_idle (local workload only)"]; got != 0 {
		t.Fatalf("false positive on idle fabric: detected = %v, median rate %v txns/Mcy",
			got, r.Metrics["median_rate_idle (local workload only)"])
	}
	// The paper's machine has point-to-point links: no plane metrics.
	if got, ok := r.Metrics["localized_plane"]; ok {
		t.Fatalf("p100-dgx1 reported localized_plane = %v; it has no switch fabric", got)
	}
}

// TestSecVIIPlaneLocalization runs the detector on the DGX-2 profile,
// where the two-stage fabric pins the covert pair to one switch plane
// and the detector must name it.
func TestSecVIIPlaneLocalization(t *testing.T) {
	if testing.Short() {
		t.Skip("sec7 on v100-dgx2 re-runs the full attack setup; skipped in -short CI runs")
	}
	t.Parallel()
	p := smallParams()
	p.Arch = "v100-dgx2"
	r, err := SecVII(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["detected_covert channel active"]; got != 1 {
		t.Fatalf("covert channel not detected on v100-dgx2: detected = %v, median rate %v txns/Mcy",
			got, r.Metrics["median_rate_covert channel active"])
	}
	prof, err := arch.LookupProfile("v100-dgx2")
	if err != nil {
		t.Fatal(err)
	}
	want := float64((0 + 1) % prof.Fabric.Planes) // trojan GPU0, spy GPU1
	got, ok := r.Metrics["localized_plane"]
	if !ok {
		t.Fatalf("covert stream not localized to any plane; plane rates: %v %v %v %v %v %v",
			r.Metrics["plane_rate_0"], r.Metrics["plane_rate_1"], r.Metrics["plane_rate_2"],
			r.Metrics["plane_rate_3"], r.Metrics["plane_rate_4"], r.Metrics["plane_rate_5"])
	}
	if got != want {
		t.Fatalf("localized_plane = %v, want %v (the covert pair's pinned plane)", got, want)
	}
	for i := 0; i < prof.Fabric.Planes; i++ {
		rate, ok := r.Metrics[fmt.Sprintf("plane_rate_%d", i)]
		if !ok {
			t.Fatalf("missing per-plane rate metric plane_rate_%d", i)
		}
		if i != int(want) && rate >= r.Metrics[fmt.Sprintf("plane_rate_%d", int(want))] {
			t.Fatalf("plane %d rate %v not below the covert plane's %v", i, rate,
				r.Metrics[fmt.Sprintf("plane_rate_%d", int(want))])
		}
	}
}

// TestFabricSweep checks the port-contention sweep: queueing and error
// rate must grow with competing streams while the accounting holds.
func TestFabricSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fabricsweep runs four full channel setups on v100-dgx2; skipped in -short CI runs")
	}
	t.Parallel()
	r, err := FabricSweep(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	q0, q3 := r.Metrics["queue_cycles_0streams"], r.Metrics["queue_cycles_3streams"]
	if q3 <= 2*q0 {
		t.Fatalf("port queueing did not grow with competitors: %v cycles at 0 streams, %v at 3", q0, q3)
	}
	e0, e3 := r.Metrics["err_pct_0streams"], r.Metrics["err_pct_3streams"]
	if e3 <= e0 {
		t.Fatalf("contention did not degrade the channel: %v%% errors at 0 streams, %v%% at 3", e0, e3)
	}
	for k := 0; k < fabricsweepStreams; k++ {
		cur := r.Metrics[fmt.Sprintf("plane_txns_%dstreams", k)]
		next := r.Metrics[fmt.Sprintf("plane_txns_%dstreams", k+1)]
		if next <= cur {
			t.Fatalf("covert-plane traffic not increasing with streams: %v txns at %d, %v at %d",
				cur, k, next, k+1)
		}
	}
	for _, l := range r.Lines() {
		if strings.Contains(l, "ACCOUNTING ERROR") {
			t.Fatalf("plane/link accounting diverged: %s", l)
		}
	}
	if bw := r.Metrics["bw_MBps_0streams"]; bw <= 0 {
		t.Fatalf("no covert bandwidth on the quiet fabric: %v MB/s", bw)
	}
}

func TestMIG(t *testing.T) {
	t.Parallel()
	r, err := MIG(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["baseline_aligned"]; got != 1 {
		t.Fatalf("attack should succeed on the stock machine: baseline_aligned = %v", got)
	}
	if got := r.Metrics["mig_aligned"]; got != 0 {
		t.Fatalf("attack should fail under MIG partitioning: mig_aligned = %v", got)
	}
}

func TestPairs(t *testing.T) {
	t.Parallel()
	r, err := Pairs(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["connected_pairs"] != 32 || r.Metrics["refused_pairs"] != 24 {
		t.Errorf("pair counts %v/%v, want 32/24", r.Metrics["connected_pairs"], r.Metrics["refused_pairs"])
	}
	if r.Metrics["hit_spread_cycles"] > 40 {
		t.Errorf("remote hit levels vary %v cycles across pairs; paper found them uniform", r.Metrics["hit_spread_cycles"])
	}
}

func TestMultiGPU(t *testing.T) {
	if testing.Short() {
		t.Skip("multigpu runs three full channel setups; skipped in -short CI runs")
	}
	t.Parallel()
	r, err := MultiGPU(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	bw1, bw2 := r.Metrics["bw_1_, 4 sets"], r.Metrics["bw_2_4+4 sets"]
	if bw2 <= bw1 {
		t.Errorf("two-GPU fan-out bandwidth %v not above single 4-set %v", bw2, bw1)
	}
}

func TestArchSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("archsweep reruns the attack chain on three profiles; skipped in -short CI runs")
	}
	t.Parallel()
	r, err := ArchSweep(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["profiles"] != 3 {
		t.Fatalf("swept %v profiles, want 3", r.Metrics["profiles"])
	}
	if r.Metrics["ported"] != 3 {
		t.Errorf("attack ported on %v/3 profiles: %v", r.Metrics["ported"], r.Metrics)
	}
	for _, name := range []string{"p100-dgx1", "v100-dgx2", "a100-class"} {
		if r.Metrics["geo_ok_"+name] != 1 {
			t.Errorf("%s: geometry reverse engineering failed", name)
		}
		if r.Metrics["bw_MBps_"+name] <= 0 {
			t.Errorf("%s: no covert bandwidth", name)
		}
	}
	// The measured associativities are the per-generation ground truth.
	if r.Metrics["measured_ways_p100-dgx1"] != 16 ||
		r.Metrics["measured_ways_v100-dgx2"] != 24 ||
		r.Metrics["measured_ways_a100-class"] != 32 {
		t.Errorf("measured ways wrong: %v", r.Metrics)
	}
}

// failingGram's render always fails; attachPGM must surface that in
// the report instead of silently dropping the artifact.
type failingGram struct{}

func (failingGram) WritePGM(io.Writer) error { return errors.New("disk is lava") }

type okGram struct{}

func (okGram) WritePGM(w io.Writer) error {
	_, err := w.Write([]byte("P5 1 1 255 x"))
	return err
}

func TestAttachPGMRecordsRenderErrors(t *testing.T) {
	r := newResult("x", "t")
	attachPGM(r, "good", okGram{})
	attachPGM(r, "bad", failingGram{})
	if _, ok := r.Artifacts["good.pgm"]; !ok {
		t.Error("successful render not attached")
	}
	if _, ok := r.Artifacts["bad.pgm"]; ok {
		t.Error("failed render attached an artifact")
	}
	joined := strings.Join(r.Lines(), "\n")
	if !strings.Contains(joined, "ARTIFACT ERROR") || !strings.Contains(joined, "disk is lava") {
		t.Errorf("render failure not recorded in report lines: %q", joined)
	}
}
