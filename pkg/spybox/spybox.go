// Package spybox is the public library API of the reproduction: the
// one supported way to drive the simulated multi-GPU box and its
// attack suite from outside this repository.
//
// Open a Session with a Config, then Run experiments by ID:
//
//	sess, err := spybox.Open(spybox.Config{Scale: spybox.Small})
//	results, err := sess.Run(ctx, "fig9")
//
// Run returns structured results (pkg/spybox/report): typed record
// rows, keyed metrics with units, chart series, and artifacts, with a
// text renderer that matches the CLI's reports byte-for-byte and a
// schema-versioned JSON encoding (report.Encode). Long runs are
// observable through Config.Events (per-experiment and per-trial
// start/finish) and cancellable through the context; a cancelled run
// returns the completed results alongside an *InterruptedError.
//
// For direct machine-level scripting below the experiment layer —
// building machines, characterizing timing, discovering eviction
// sets, driving covert channels and victims by hand — see the
// re-exported toolkit in machine.go (Session.NewMachine, NewAttacker,
// AlignChannels, ...). The examples/ directory exercises both layers.
package spybox

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"spybox/internal/expt"
	"spybox/internal/sim"
	"spybox/pkg/spybox/report"
)

// DefaultSeed is the root seed the repository's reference reports are
// generated with.
const DefaultSeed uint64 = 20230612

// ModelVersion names the simulator's timing model. Results are a pure
// function of (seed, scale, arch, experiment) within one model
// version; a build whose simulator draws different numbers at the
// same seed carries a different one. The service's cache keys include
// it.
const ModelVersion = sim.ModelVersion

// Scale selects experiment sizing; see the Small/Default/Paper
// constants.
type Scale = expt.Scale

// Experiment scales, in increasing cost order.
const (
	Small   = expt.Small   // unit-test sizing: seconds per experiment
	Default = expt.Default // CLI sizing: paper-shaped results in minutes
	Paper   = expt.Paper   // approaches the paper's sample counts
)

// ParseScale maps a flag spelling ("small", "default", "paper") to a
// Scale; the empty string means Default.
func ParseScale(s string) (Scale, error) { return expt.ParseScale(s) }

// Scales lists every scale, in increasing cost order.
func Scales() []Scale { return expt.Scales() }

// ScaleNames returns the flag spellings of every scale.
func ScaleNames() []string { return expt.ScaleNames() }

// Structured result model, re-exported from pkg/spybox/report.
type (
	Result = report.Result
	Record = report.Record
	Field  = report.Field
	Metric = report.Metric
	Series = report.Series
)

// EventKind tags a progress event.
type EventKind int

const (
	// ExperimentStart fires before an experiment's first trial.
	ExperimentStart EventKind = iota
	// ExperimentDone fires after an experiment completes or fails.
	ExperimentDone
	// TrialStart fires when a trial is claimed by a runner worker.
	TrialStart
	// TrialDone fires when a trial finishes.
	TrialDone
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case ExperimentStart:
		return "experiment-start"
	case ExperimentDone:
		return "experiment-done"
	case TrialStart:
		return "trial-start"
	case TrialDone:
		return "trial-done"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one progress notification of a running session.
type Event struct {
	Kind       EventKind
	Job        JobID  // job tag of the run (see Session.RunJob); empty for plain Run
	Experiment string // experiment ID
	Title      string
	Trial      int           // trial index; -1 on experiment-level events
	Trials     int           // trial count; 0 when unknown
	Elapsed    time.Duration // monotonic time since the Run call began
	Err        error         // failure cause, on *Done events only
}

// Config parameterizes a Session.
type Config struct {
	// Seed is the root seed; every result is a pure function of
	// (Seed, Scale, Arch). 0 means DefaultSeed.
	Seed uint64
	// Scale selects experiment sizing (zero value: Small).
	Scale Scale
	// Arch names the architecture profile to simulate (see
	// ProfileNames). Empty means the paper's p100-dgx1.
	Arch string
	// Parallel bounds the trial worker pool; 0 means every available
	// core. Results are bit-identical at any value.
	Parallel int
	// Events, when non-nil, receives progress events. Delivery is
	// serialized — the callback is never invoked concurrently — and
	// synchronous, so it should return quickly.
	Events func(Event)
}

// Session is an opened, validated configuration against which
// experiments run. Sessions are safe for concurrent Run calls.
//
// A session keeps the attack setups its experiments share (the
// run-seed eviction sets and their alignments, checkpointed) for its
// whole life, so e.g. fig5, fig7, fig10 and sec6 discover the attack
// pair once between them. The memo is bounded and goes with the
// session; it never changes a result byte.
type Session struct {
	cfg     Config
	profile Profile
	memo    *expt.SetupMemo
	mu      sync.Mutex // serializes Events delivery
}

// Open validates the configuration and resolves its architecture
// profile.
func Open(cfg Config) (*Session, error) {
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	if cfg.Parallel < 0 {
		return nil, fmt.Errorf("spybox: Parallel must be >= 0 (got %d)", cfg.Parallel)
	}
	valid := false
	for _, s := range Scales() {
		if cfg.Scale == s {
			valid = true
		}
	}
	if !valid {
		return nil, fmt.Errorf("spybox: invalid scale %d", int(cfg.Scale))
	}
	prof, err := expt.Params{Arch: cfg.Arch}.ArchProfile()
	if err != nil {
		return nil, fmt.Errorf("spybox: %w", err)
	}
	return &Session{cfg: cfg, profile: prof, memo: expt.NewSetupMemo(cfg.Seed)}, nil
}

// Config returns a copy of the session's (defaulted) configuration.
func (s *Session) Config() Config { return s.cfg }

// Profile returns the resolved architecture profile the session
// simulates.
func (s *Session) Profile() Profile { return s.profile }

// NewMachine builds a fresh simulated machine on the session's
// profile and seed, for machine-level scripting below the experiment
// layer (see machine.go for the toolkit that drives it).
func (s *Session) NewMachine() (*Machine, error) {
	prof := s.profile
	return NewMachine(MachineOptions{Seed: s.cfg.Seed, Profile: &prof})
}

// ExperimentInfo describes one registered experiment: its trial
// decomposition and headline metric keys (patterns like
// `total_misses_<app>` expand per the placeholder), so tooling can
// discover experiments without parsing report text.
type ExperimentInfo struct {
	ID              string   `json:"id"`
	Title           string   `json:"title"`
	Trials          string   `json:"trials"`
	HeadlineMetrics []string `json:"headline_metrics"`
}

// Experiments lists every registered experiment, in paper order.
func Experiments() []ExperimentInfo {
	reg := expt.Registry()
	out := make([]ExperimentInfo, len(reg))
	for i, e := range reg {
		out[i] = ExperimentInfo{ID: e.ID, Title: e.Title, Trials: e.Trials, HeadlineMetrics: e.Headline}
	}
	return out
}

// LookupExperiment finds a registered experiment's metadata by ID.
func LookupExperiment(id string) (ExperimentInfo, bool) {
	e, ok := expt.Lookup(id)
	if !ok {
		return ExperimentInfo{}, false
	}
	return ExperimentInfo{ID: e.ID, Title: e.Title, Trials: e.Trials, HeadlineMetrics: e.Headline}, true
}

// InterruptedError reports a run stopped by its context: Results on
// the Run return hold the experiments that completed before the
// interruption. Unwrap exposes the context's error, so
// errors.Is(err, context.Canceled) works.
type InterruptedError struct {
	Completed int   // experiments fully completed
	Total     int   // experiments requested
	Cause     error // the context's error (possibly wrapped by the runner)
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("spybox: run interrupted after %d/%d experiments: %v", e.Completed, e.Total, e.Cause)
}

func (e *InterruptedError) Unwrap() error { return e.Cause }

// emit delivers an event to the configured observer, serialized.
func (s *Session) emit(ev Event) {
	if s.cfg.Events == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Events(ev)
}

// resolve maps IDs to registry entries, preserving order and dropping
// duplicates; no IDs means every registered experiment. Every unknown
// ID is reported at once, before any trial starts.
func resolve(ids []string) ([]expt.Experiment, error) {
	if len(ids) == 0 {
		return expt.Registry(), nil
	}
	var out []expt.Experiment
	var unknown []string
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		e, ok := expt.Lookup(id)
		if !ok {
			unknown = append(unknown, id)
			continue
		}
		out = append(out, e)
	}
	if len(unknown) > 0 {
		return nil, unknownIDsError(unknown)
	}
	return out, nil
}

// unknownIDsError names every unknown ID and every valid one, so a
// typo'd batch fails with one actionable message instead of one error
// per rerun.
func unknownIDsError(unknown []string) error {
	sort.Strings(unknown)
	var valid []string
	for _, e := range expt.Registry() {
		valid = append(valid, e.ID)
	}
	noun := "experiment"
	if len(unknown) > 1 {
		noun = "experiments"
	}
	quoted := make([]string, len(unknown))
	for i, id := range unknown {
		quoted[i] = fmt.Sprintf("%q", id)
	}
	return fmt.Errorf("spybox: unknown %s %s (valid: %s)",
		noun, strings.Join(quoted, ", "), strings.Join(valid, ", "))
}

// ExpandIDs validates and normalizes an experiment selection: IDs are
// deduplicated in order, every unknown ID is reported in one error
// (alongside the valid names), and an empty selection expands to every
// registered experiment in paper order. Session.Run and the service
// layer both resolve their selections through this, so validation
// happens before any trial starts.
func ExpandIDs(ids ...string) ([]string, error) {
	todo, err := resolve(ids)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(todo))
	for i, e := range todo {
		out[i] = e.ID
	}
	return out, nil
}

// Run executes the named experiments in order (all of them when no
// IDs are given) and returns their structured results. The context
// cancels the run at the next trial boundary; the completed results
// are still returned, alongside an *InterruptedError. Progress
// streams through Config.Events.
func (s *Session) Run(ctx context.Context, ids ...string) ([]*Result, error) {
	return s.RunJob(ctx, "", ids...)
}

// RunJob is Run with a job tag: every progress event of the run
// carries the tag in Event.Job, and the tag is threaded through the
// trial runner's hooks, so one Events observer can demultiplex
// concurrent runs. The service layer (pkg/spybox/service) drives
// sessions exclusively through this; an empty tag is plain Run. The
// tag never influences results.
func (s *Session) RunJob(ctx context.Context, job JobID, ids ...string) ([]*Result, error) {
	if ctx == nil {
		//spylint:allow ctxflow documented nil-ctx default: a nil ctx means run to completion uncancelled
		ctx = context.Background()
	}
	todo, err := resolve(ids)
	if err != nil {
		return nil, err
	}
	// Wall-clock use is deliberate and confined to progress events:
	// pkg/spybox is the service layer, outside spylint's detrand
	// deterministic-package set. Event.Elapsed feeds human-facing
	// progress (SSE streams, CLI spinners) and never flows into
	// experiment results — those are produced entirely inside the
	// deterministic internal/* packages, where the wall clock is banned.
	start := time.Now()
	var results []*Result
	for _, e := range todo {
		if ctx.Err() != nil {
			return results, &InterruptedError{Completed: len(results), Total: len(todo), Cause: ctx.Err()}
		}
		e := e
		p := expt.Params{
			Seed: s.cfg.Seed, Scale: s.cfg.Scale, Parallel: s.cfg.Parallel, Arch: s.cfg.Arch,
			Ctx: ctx, Job: string(job), Memo: s.memo,
			Hooks: &expt.TrialHooks{
				Start: func(tag string, i, n int) {
					s.emit(Event{Kind: TrialStart, Job: JobID(tag), Experiment: e.ID, Title: e.Title,
						Trial: i, Trials: n, Elapsed: time.Since(start)})
				},
				Done: func(tag string, i, n int, err error) {
					s.emit(Event{Kind: TrialDone, Job: JobID(tag), Experiment: e.ID, Title: e.Title,
						Trial: i, Trials: n, Elapsed: time.Since(start), Err: err})
				},
			},
		}
		s.emit(Event{Kind: ExperimentStart, Job: job, Experiment: e.ID, Title: e.Title,
			Trial: -1, Elapsed: time.Since(start)})
		r, err := e.Run(p)
		s.emit(Event{Kind: ExperimentDone, Job: job, Experiment: e.ID, Title: e.Title,
			Trial: -1, Elapsed: time.Since(start), Err: err})
		if err != nil {
			// Only a genuine cancellation (the runner wraps the
			// context's error) becomes an InterruptedError; a trial
			// that failed on its own merits while the context happened
			// to be cancelled stays a failure — the runner's
			// failure-wins rule, preserved here.
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				return results, &InterruptedError{Completed: len(results), Total: len(todo), Cause: err}
			}
			return results, fmt.Errorf("spybox: %s: %w", e.ID, err)
		}
		results = append(results, r)
	}
	return results, nil
}
