// Package expt regenerates every table and figure of the paper's
// evaluation. Each experiment is a function from Params to a Result —
// the structured report model in pkg/spybox/report, holding typed
// record rows, keyed metrics with units, chart series, and binary
// artifacts; cmd/spybox, the public pkg/spybox API, the benchmark
// harness, and EXPERIMENTS.md all consume these.
//
// Repetition-heavy experiments are decomposed into independent trials
// executed by the runner (runner.go); the per-experiment index, trial
// granularity, scales, and headline metrics live in EXPERIMENTS.md
// and in the registry's Trials/Headline metadata.
package expt

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"spybox/internal/arch"
	"spybox/internal/core"
	"spybox/internal/sim"
	"spybox/internal/xrand"
	"spybox/pkg/spybox/report"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Small is for unit tests and benchmarks: seconds per experiment.
	Small Scale = iota
	// Default is the CLI scale: paper-shaped results in minutes.
	Default
	// Paper approaches the paper's sample counts where feasible.
	Paper
)

// Scales lists every scale, in increasing cost order.
func Scales() []Scale { return []Scale{Small, Default, Paper} }

// String returns the flag spelling of the scale, the inverse of
// ParseScale.
func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Default:
		return "default"
	case Paper:
		return "paper"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ScaleNames returns the flag spellings of every scale (for CLI help
// and error messages).
func ScaleNames() []string {
	scales := Scales()
	out := make([]string, len(scales))
	for i, s := range scales {
		out[i] = s.String()
	}
	return out
}

// ParseScale maps a flag string to a Scale. The empty string means
// Default.
func ParseScale(s string) (Scale, error) {
	if s == "" {
		return Default, nil
	}
	for _, sc := range Scales() {
		if s == sc.String() {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("expt: unknown scale %q (%s)", s, strings.Join(ScaleNames(), "|"))
}

// TrialHooks observe the runner's per-trial lifecycle. Both callbacks
// may be invoked concurrently from worker goroutines; a nil hook set
// (or a nil callback) is silently skipped. The job argument is
// Params.Job, threaded through verbatim so one observer can
// demultiplex the trial streams of concurrently running jobs.
type TrialHooks struct {
	Start func(job string, index, total int)
	Done  func(job string, index, total int, err error)
}

func (h *TrialHooks) start(job string, index, total int) {
	if h != nil && h.Start != nil {
		h.Start(job, index, total)
	}
}

func (h *TrialHooks) done(job string, index, total int, err error) {
	if h != nil && h.Done != nil {
		h.Done(job, index, total, err)
	}
}

// Params parameterize one experiment run.
type Params struct {
	Seed  uint64
	Scale Scale
	// Parallel bounds how many trials of a decomposed experiment run
	// concurrently (each trial is its own simulated Machine). 0 means
	// use every available core. Results are bit-identical at any
	// value; see runner.go.
	Parallel int
	// Arch names the architecture profile to build machines from
	// (arch.ProfileNames). Empty means the paper's p100-dgx1, which
	// reproduces pre-profile reports byte-for-byte.
	Arch string
	// Ctx, when non-nil, cancels a run cleanly between trials (the
	// runner checks it before claiming each trial). A cancelled run
	// returns an error wrapping Ctx's error.
	Ctx context.Context
	// Hooks, when non-nil, observe per-trial start/finish — the
	// progress stream pkg/spybox exposes for long runs.
	Hooks *TrialHooks
	// Job is an opaque tag (the service layer's job ID) the runner
	// threads into every Hooks callback, so trial-level progress from
	// concurrent jobs can be told apart. It never influences results.
	Job string
	// Memo, when non-nil, shares the attack setups seeded with its
	// seed among every run handed it (see memo.go); a spybox.Session
	// passes its own to each experiment. Without one, RunTrials gives
	// each run a memo of its own. Restored setups are byte-identical
	// to rebuilt ones, so it never influences results.
	Memo *SetupMemo

	// slot, when non-nil, keeps this trial worker's machine across its
	// trials (set by the runner; one slot per trial worker, so a reused
	// machine never crosses goroutines). Because Machine.Reset is
	// byte-identical to fresh construction, reuse never influences
	// results — the pooled-determinism tests pin this.
	slot *sim.MachineSlot
}

// ctx resolves the run's context; nil means never cancelled.
func (p Params) ctx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	//spylint:allow ctxflow documented nil-ctx default: an unset Params.Ctx means the run is never cancelled
	return context.Background()
}

// ArchProfile resolves the run's architecture profile.
func (p Params) ArchProfile() (arch.Profile, error) {
	if p.Arch == "" {
		return arch.P100DGX1(), nil
	}
	return arch.LookupProfile(p.Arch)
}

// mustProfile is ArchProfile for experiment bodies; the CLI validates
// -arch before any experiment runs, so a failure here is a programming
// error.
func (p Params) mustProfile() arch.Profile {
	prof, err := p.ArchProfile()
	if err != nil {
		panic(err)
	}
	return prof
}

// MachineFor builds a machine on the run's architecture profile with
// the remaining options as given. Inside a trial the runner supplies
// its worker's machine slot, so a matching machine from the worker's
// previous trial is reset to opts.Seed and reused instead of being
// rebuilt; outside the runner it is plain construction.
func (p Params) MachineFor(opts sim.Options) (*sim.Machine, error) {
	prof, err := p.ArchProfile()
	if err != nil {
		return nil, err
	}
	opts.Profile = &prof
	return p.slot.Get(opts) // a nil slot falls through to sim.NewMachine
}

// machineFor is MachineFor for experiment bodies, which run behind a
// CLI that has already validated -arch; a failure here is a
// programming error.
func machineFor(p Params, opts sim.Options) *sim.Machine {
	m, err := p.MachineFor(opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Result is the structured experiment report (see pkg/spybox/report):
// ordered records with keyed fields, metrics with units, series, and
// artifacts, rendered as byte-identical text or schema-versioned JSON.
type Result = report.Result

// newResult starts an empty report.
func newResult(id, title string) *Result { return report.New(id, title) }

// f and fu build record fields (fu carries a unit); see report.F/FU.
func f(key string, v any) report.Field        { return report.F(key, v) }
func fu(key, unit string, v any) report.Field { return report.FU(key, unit, v) }

// attachPGM renders a memorygram into the result's artifacts. A
// failed render must not pass silently (the run would report success
// while dropping the artifact), so the error is recorded in the
// report records where the CLI prints it.
func attachPGM(r *Result, name string, g interface{ WritePGM(io.Writer) error }) {
	var buf bytes.Buffer
	if err := g.WritePGM(&buf); err != nil {
		r.Errorf("ARTIFACT ERROR: rendering %s.pgm failed: %v", name, err)
		return
	}
	r.Artifacts[name+".pgm"] = buf.Bytes()
}

// Experiment couples an ID with its runner and the machine-readable
// metadata tooling discovers via `spybox list -json`: the trial
// decomposition and the headline metric keys (patterns like
// `total_misses_<app>` expand per the placeholder).
type Experiment struct {
	ID       string
	Title    string
	Trials   string
	Headline []string
	Run      func(Params) (*Result, error)
}

// Registry lists all experiments in paper order. Trial-decomposed
// experiments (see runner.go and EXPERIMENTS.md) are registered
// directly; single-shot experiments ride the trivial OneTrial adapter
// so everything the CLI runs goes through the runner.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig4", Title: "Local and remote GPU access time (timing characterization)",
			Trials:   "single-shot",
			Headline: []string{"local_boundary", "remote_boundary"},
			Run:      OneTrial(Fig4)},
		{ID: "fig5", Title: "Validating the eviction set determination",
			Trials:   "single-shot",
			Headline: []string{"eviction_step_local", "eviction_step_remote"},
			Run:      OneTrial(Fig5)},
		{ID: "table1", Title: "L2 cache architecture (reverse engineered)",
			Trials:   "single-shot",
			Headline: []string{"sets", "ways", "line_size", "cache_bytes", "policy_lru"},
			Run:      OneTrial(TableI)},
		{ID: "fig7", Title: "Eviction set alignment across processes",
			Trials:   "single-shot",
			Headline: []string{"aligned_fraction", "matched_avg_cycles", "unmatched_avg_cycles"},
			Run:      OneTrial(Fig7)},
		{ID: "fig9", Title: "Covert channel bandwidth and error rate vs. cache sets",
			Trials:   "one per (set count, repetition)",
			Headline: []string{"best_bandwidth_MBps", "error_at_1_set_pct", "error_at_max_sets_pct"},
			Run:      Fig9},
		{ID: "fig10", Title: "Covert message waveform received by spy",
			Trials:   "single-shot",
			Headline: []string{"zero_level_cycles", "one_level_cycles", "bit_error_rate"},
			Run:      OneTrial(Fig10)},
		{ID: "fig11", Title: "Memorygrams of six victim applications",
			Trials:   "one per victim application",
			Headline: []string{"total_misses_<app>"},
			Run:      Fig11},
		{ID: "fig12", Title: "Application fingerprinting confusion matrix",
			Trials:   "one victim class per trial",
			Headline: []string{"test_accuracy", "knn_accuracy", "softmax_accuracy", "recall_<app>"},
			Run:      Fig12},
		{ID: "fig13", Title: "MLP cache misses per set histogram",
			Trials:   "one per hidden size",
			Headline: []string{"total_misses_h<H>"},
			Run:      Fig13},
		{ID: "table2", Title: "Average misses over all cache sets vs. hidden neurons",
			Trials:   "4 reference + 4 extraction measurements",
			Headline: []string{"avg_misses_h<H>", "monotone_in_hidden", "extraction_correct"},
			Run:      TableII},
		{ID: "fig14", Title: "Memorygram of MLP with 128 vs 512 neurons",
			Trials:   "single-shot",
			Headline: []string{"total_misses_h128", "total_misses_h512"},
			Run:      OneTrial(Fig14)},
		{ID: "fig15", Title: "Two-epoch MLP memorygram and epoch counting",
			Trials:   "single-shot",
			Headline: []string{"epochs_detected", "epochs_true"},
			Run:      OneTrial(Fig15)},
		{ID: "sec6", Title: "Noise mitigation via occupancy blocking",
			Trials:   "one per condition (quiet / noisy / blocked)",
			Headline: []string{"error_quiet_pct", "error_noisy_pct", "error_blocked_pct", "noise_blocks_without_blocking", "noise_blocks_with_blocking"},
			Run:      SecVI},
		{ID: "sec7", Title: "NVLink traffic detection of cross-GPU attacks",
			Trials:   "single-shot",
			Headline: []string{"detected_<window>", "median_rate_<window>", "plane_rate_<i>", "localized_plane"},
			Run:      OneTrial(SecVII)},
		{ID: "mig", Title: "MIG-style partitioning defense (extension)",
			Trials:   "one per machine (stock / partitioned)",
			Headline: []string{"baseline_aligned", "mig_aligned"},
			Run:      MIG},
		{ID: "pairs", Title: "Cross-GPU timing across every NVLink pair (extension)",
			Trials:   "one per ordered GPU pair",
			Headline: []string{"connected_pairs", "refused_pairs", "hit_spread_cycles", "miss_spread_cycles"},
			Run:      Pairs},
		{ID: "multigpu", Title: "Covert channel over additional spy GPUs (extension)",
			Trials:   "one per spy configuration",
			Headline: []string{"bw_<config>", "err_<config>"},
			Run:      MultiGPU},
		{ID: "archsweep", Title: "Attack portability across GPU box generations (extension)",
			Trials:   "one per architecture profile",
			Headline: []string{"ported", "geo_ok_<profile>", "aligned_<profile>", "bw_MBps_<profile>", "err_pct_<profile>"},
			Run:      ArchSweep},
		{ID: "fabricsweep", Title: "Covert channel under switch-port contention (extension)",
			Trials:   "one per competitor count (0-3)",
			Headline: []string{"bw_MBps_<k>streams", "err_pct_<k>streams", "queue_cycles_<k>streams", "err_rise_pct", "queue_growth"},
			Run:      FabricSweep},
		{ID: "armsrace", Title: "Closed-loop attacker-vs-defense arms race (extension)",
			Trials:   "one per defender setting (static baseline + 3 adaptive)",
			Headline: []string{"det_rate_<setting>", "fp_rate_<setting>", "goodput_MBps_<setting>", "err_pct_<setting>", "cost_<setting>", "dominates"},
			Run:      ArmsRace},
	}
}

// lookupIndex is the ID -> Experiment map, built once from Registry().
// Write-once under sync.Once and derived from the static registry, so
// no trial can observe it in two states.
var (
	//spylint:allow detrand write-once sync.Once guard, never perturbs a trial
	lookupOnce sync.Once
	//spylint:allow detrand built once from the static registry, read-only afterwards
	lookupMap map[string]Experiment
)

// Lookup finds an experiment by ID in O(1).
func Lookup(id string) (Experiment, bool) {
	lookupOnce.Do(func() {
		reg := Registry()
		lookupMap = make(map[string]Experiment, len(reg))
		for _, e := range reg {
			lookupMap[e.ID] = e
		}
	})
	e, ok := lookupMap[id]
	return e, ok
}

// --- shared setup helpers ---

// trojanGPU and spyGPU are the attack endpoints used throughout: two
// NVLink-connected GPUs of the DGX-1, matching the paper's GPU A/B.
const (
	trojanGPU arch.DeviceID = 0
	spyGPU    arch.DeviceID = 1
)

// attackPair is the post-reverse-engineering state both channel
// experiments start from: trojan and spy attackers with discovered,
// de-aliased eviction sets over the trojan GPU's L2.
type attackPair struct {
	m          *sim.Machine
	trojan     *core.Attacker
	spy        *core.Attacker
	trojanSets []core.EvictionSet
	spySets    []core.EvictionSet
}

// discoveryPages returns the attacker buffer size (in 64 KB pages)
// for a scale on the run's architecture. Discovery needs every
// conflict group to hold at least 2*ways-1 pages (phase A hides
// ways-1 conflicters; phase B then needs ways-1 helpers), so the
// buffer must sit comfortably above regions*(2*ways-1) pages. On the
// P100 (4 regions, 16 ways) these sizes are the historical 176/256.
func discoveryPages(prof arch.Profile, s Scale) int {
	regions := prof.HashRegions()
	switch s {
	case Small:
		return regions * (2*prof.L2Ways + 12)
	default:
		return regions * 4 * prof.L2Ways
	}
}

// setupAttackPair builds the run's machine and the attack pair on it,
// or restores them from the run's setup memo.
func setupAttackPair(p Params) (*attackPair, error) {
	pair, _, err := p.setup(0)
	return pair, err
}

// attackPairOn builds both attackers on m and runs discovery on each.
// The thresholds come from a real Fig. 4 characterization run, not
// from constants; the cache geometry (associativity, buffer sizing)
// comes from the machine's profile, never from the P100 package
// constants.
func attackPairOn(m *sim.Machine, p Params) (*attackPair, error) {
	prof, err := core.CharacterizeTiming(m, trojanGPU, spyGPU, 48, p.Seed^0xfeed)
	if err != nil {
		return nil, err
	}
	pages := discoveryPages(m.Profile(), p.Scale)
	trojan, tSets, err := newDiscovered(m, trojanGPU, pages, prof.Thresholds, p.Seed^0x1)
	if err != nil {
		return nil, err
	}
	spy, sSets, err := newDiscovered(m, spyGPU, pages, prof.Thresholds, p.Seed^0x2)
	if err != nil {
		return nil, err
	}
	return &attackPair{m: m, trojan: trojan, spy: spy, trojanSets: tSets, spySets: sSets}, nil
}

// setupChannel is the covert experiments' common prefix: the run's
// attack pair and a default-configured channel over its first numSets
// aligned set pairs. Pair and alignment come from the run's setup memo
// when the trial shares them (see memo.go).
func setupChannel(p Params, numSets int) (*attackPair, *core.Channel, error) {
	pair, pairs, err := p.setup(numSets)
	if err != nil {
		return nil, nil, err
	}
	ch, err := core.NewChannel(pair.trojan, pair.spy, pairs, core.DefaultCovertConfig())
	if err != nil {
		return nil, nil, err
	}
	return pair, ch, nil
}

// newDiscovered builds an attacker on dev targeting the trojan GPU's
// L2 and returns it with its discovered eviction sets.
func newDiscovered(m *sim.Machine, dev arch.DeviceID, pages int, thr core.Thresholds, seed uint64) (*core.Attacker, []core.EvictionSet, error) {
	a, err := core.NewAttacker(m, dev, trojanGPU, pages, thr, seed)
	if err != nil {
		return nil, nil, err
	}
	groups, err := a.DiscoverPageGroups(a.Ways())
	if err != nil {
		return nil, nil, err
	}
	return a, a.AllEvictionSets(groups, a.Ways()), nil
}

// setupSpy builds only the remote spy side (for side channels, where
// no trojan exists — the victim is an ordinary application).
func setupSpy(m *sim.Machine, p Params, pages int) (*core.Attacker, []core.EvictionSet, error) {
	prof, err := core.CharacterizeTiming(m, trojanGPU, spyGPU, 48, p.Seed^0xfeed)
	if err != nil {
		return nil, nil, err
	}
	return newDiscovered(m, spyGPU, pages, prof.Thresholds, p.Seed^0x2)
}

// randomMessage returns n pseudo-random message bytes drawn from seed.
func randomMessage(seed uint64, n int) []byte {
	rng := xrand.New(seed)
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(rng.Uint64())
	}
	return msg
}
