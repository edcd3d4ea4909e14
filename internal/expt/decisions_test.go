package expt

import (
	"math"
	"testing"
)

// decision pins one headline metric: want within tol (0 means exact).
type decision struct {
	metric    string
	want, tol float64
}

// Tolerances for the decisions that are measurements rather than
// verdicts.
const (
	// cycleTol bounds a timing boundary or level, in cycles. The
	// baseline jitter sigma is 6 cycles and 20 with one contender.
	cycleTol = 10
	// errPctTol bounds an error rate, in percentage points. At small
	// scale a covert message is 128-256 bits, so one bit is 0.4-0.8
	// points, and a change of sampler redraws every bit's noise.
	errPctTol = 5
	// bwRelTol bounds a bandwidth, relative: the channel's slot clock
	// sets it, so noise moves it by well under 1%.
	bwRelTol = 0.01
)

func exact(metric string, want float64) decision  { return decision{metric, want, 0} }
func cycles(metric string, want float64) decision { return decision{metric, want, cycleTol} }
func errPct(metric string, want float64) decision { return decision{metric, want, errPctTol} }
func bw(metric string, want float64) decision     { return decision{metric, want, want * bwRelTol} }

// goldenDecisions are the headline decisions of every experiment with
// a golden report (plus fig5 and fig7, whose verdicts the paper's
// chain rests on), as the reports of sim/1 — the polar-method jitter
// sampler — recorded them at the golden seed. A model version change
// re-pins the golden bytes; this table is what it must keep.
var goldenDecisions = []struct {
	arch, id  string
	slow      bool // skipped under -short, like its byte golden
	decisions []decision
}{
	{"p100-dgx1", "fig4", false, []decision{
		cycles("local_boundary", 357.6770833333333),
		cycles("remote_boundary", 793.4375),
	}},
	{"p100-dgx1", "fig5", false, []decision{
		exact("eviction_step_local", 16),
		exact("eviction_step_remote", 16),
	}},
	{"p100-dgx1", "table1", false, []decision{
		exact("cache_bytes", 4<<20),
		exact("line_size", 128),
		exact("policy_lru", 1),
		exact("sets", 2048),
		exact("ways", 16),
	}},
	{"p100-dgx1", "fig7", false, []decision{
		exact("aligned_fraction", 1),
	}},
	{"p100-dgx1", "fig9", false, []decision{
		bw("best_bandwidth_MBps", 0.12254635595369322),
		errPct("error_at_1_set_pct", 0),
		errPct("error_at_max_sets_pct", 0),
	}},
	{"p100-dgx1", "fig10", false, []decision{
		exact("bit_error_rate", 0),
		cycles("zero_level_cycles", 681.355958781362),
		cycles("one_level_cycles", 901.8477859778598),
	}},
	{"p100-dgx1", "table2", false, []decision{
		exact("extraction_correct", 4),
		exact("monotone_in_hidden", 1),
	}},
	{"p100-dgx1", "fig15", false, []decision{
		exact("epochs_detected", 2),
	}},
	{"p100-dgx1", "armsrace", true, []decision{
		exact("dominates", 1),
		exact("det_rate_static", 1),
		exact("det_rate_contain", 1),
		exact("fp_rate_static", 0),
		exact("fp_rate_contain", 0),
		exact("fp_rate_aggressive", 1),
		errPct("err_pct_static", 4.296875),
		errPct("err_pct_contain", 36.71875),
	}},
	{"p100-dgx1", "sec6", true, []decision{
		errPct("error_quiet_pct", 0),
		errPct("error_noisy_pct", 36.71875),
		errPct("error_blocked_pct", 0),
		exact("noise_blocks_without_blocking", 28),
		exact("noise_blocks_with_blocking", 0),
	}},
	{"p100-dgx1", "mig", false, []decision{
		exact("baseline_aligned", 1),
		exact("mig_aligned", 0),
	}},
	{"p100-dgx1", "pairs", false, []decision{
		exact("connected_pairs", 32),
		exact("refused_pairs", 24),
	}},
	{"p100-dgx1", "multigpu", true, []decision{
		bw("bw_1_, 4 sets", 0.12279514523585432),
		bw("bw_1_, 8 sets", 0.24427795902051555),
		bw("bw_2_4+4 sets", 0.24427984897563393),
		errPct("err_1_, 4 sets", 0),
		errPct("err_1_, 8 sets", 1.7578125),
		errPct("err_2_4+4 sets", 2.1484375),
	}},
	{"p100-dgx1", "archsweep", true, []decision{
		exact("ported", 3),
		exact("aligned_p100-dgx1", 1),
		exact("aligned_v100-dgx2", 1),
		exact("aligned_a100-class", 1),
		exact("geo_ok_p100-dgx1", 1),
		exact("geo_ok_v100-dgx2", 1),
		exact("geo_ok_a100-class", 1),
		errPct("err_pct_p100-dgx1", 0),
		errPct("err_pct_v100-dgx2", 1.171875),
		errPct("err_pct_a100-class", 7.8125),
	}},
	{"v100-dgx2", "sec7", true, []decision{
		exact("detected_idle (local workload only)", 0),
		exact("detected_benign (victims + bulk P2P)", 0),
		exact("detected_covert channel active", 1),
		exact("localized_plane", 1),
	}},
	{"v100-dgx2", "fabricsweep", true, []decision{
		exact("streams_max", 3),
		errPct("err_pct_0streams", 1.5625),
		errPct("err_pct_3streams", 5.859375),
		errPct("err_rise_pct", 4.296875),
	}},
}

// TestGoldenDecisions runs each experiment of goldenDecisions at the
// golden configuration and checks its decisions, so an epoch that
// re-pins the golden bytes shows it kept every verdict the reports
// reach and moved each measurement by no more than its tolerance.
func TestGoldenDecisions(t *testing.T) {
	for _, g := range goldenDecisions {
		g := g
		t.Run(g.arch+"/"+g.id, func(t *testing.T) {
			if g.slow && testing.Short() {
				t.Skip("re-runs a full attack setup per condition; skipped in -short CI runs")
			}
			t.Parallel()
			e, ok := Lookup(g.id)
			if !ok {
				t.Fatalf("experiment %q not registered", g.id)
			}
			r, err := e.Run(Params{Seed: 20230612, Scale: Small, Parallel: 1, Arch: g.arch})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range g.decisions {
				got, ok := r.Metrics[d.metric]
				if !ok {
					t.Errorf("%s: no metric %q", g.id, d.metric)
				} else if math.Abs(got-d.want) > d.tol {
					t.Errorf("%s: %s = %v, want %v ± %v", g.id, d.metric, got, d.want, d.tol)
				}
			}
		})
	}
}
