// Command spybench is spybox's end-to-end and per-layer benchmark.
//
// One run measures one workload for a fixed amount of work sized from
// -seconds, checks the outputs,
// prints every metric as `workload metric value unit n=<samples>` and
// ends with one JSON line holding correct, attempted, failed and the
// metrics. Without -workload, or with -repeat above 1, every run goes
// to a fresh child process and the set is summarized; -compare sets two
// result files side by side against the bounds in BENCHMARK.json. See
// README.md for the workloads, the metrics and how to run them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// sample is one reported metric: its value, unit, and how many
// measurements it summarizes.
type sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runRecord is everything one run measured. Metrics is the gated set:
// the end-to-end metrics of an untraced run, or the per-layer metrics
// of a traced one. Extra holds informational breakdowns that no bound
// applies to.
type runRecord struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Traced    bool     `json:"traced"`
	Host      hostInfo `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []sample `json:"metrics"`
	Extra     []sample `json:"extra,omitempty"`
	Spans     []span   `json:"spans,omitempty"`
}

// resultsFile is the layout of results.json and trace.json.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

// summary is the final stdout line of a run.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: covert, sidechannel or serve (empty: all, each in a child process)")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "how long one run measures on a 2-core Xeon; each workload sizes its work from it")
	trace := flag.Int("trace", 0, "1 for the traced run, which reports per-layer metrics instead of end-to-end ones")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for results.json (untraced) or trace.json (traced)")
	repeat := flag.Int("repeat", 1, "runs per workload, each in a fresh child process, at seeds seed, seed+1, ...")
	compareSets := flag.Bool("compare", false, "compare two results files, given as arguments, against the bounds in BENCHMARK.json")
	child := flag.String("child", "", "internal: run one set-up (setup) or the golden check (check) and exit")
	store := flag.String("store", "", "internal: store directory for a serve set-up")
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = runChild(*child, *workloadName, *seed, *store)
	case *compareSets:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two results files")
		} else {
			err = compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		}
	case *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 1:
		err = errors.New("-seconds and -repeat must be at least 1, and -trace 0 or 1")
	case *workloadName != "" && *repeat == 1:
		err = runOne(*workloadName, *seed, *seconds, *trace == 1, *out)
	default:
		err = runSet(*workloadName, *seed, *seconds, *trace == 1, *repeat, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spybench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process, prints its metrics and
// the final JSON line, and writes the record to out. A run whose
// outputs failed a check still prints and writes what it measured,
// then fails.
func runOne(name string, seed uint64, seconds int, traced bool, out string) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	rec, err := measure(context.Background(), w, seed, time.Duration(seconds)*time.Second, traced)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rec.Seconds = seconds
	for _, list := range [][]sample{rec.Metrics, rec.Extra} {
		for _, s := range list {
			fmt.Printf("%s %s %.6g %s n=%d\n", rec.Workload, s.Name, s.Value, s.Unit, s.N)
		}
	}
	if err := writeResults(out, traced, []runRecord{*rec}); err != nil {
		return err
	}
	sum := summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]summaryValue{}}
	for _, s := range rec.Metrics {
		sum.Metrics[s.Name] = summaryValue{s.Value, s.Unit}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their check", name, rec.Failed, rec.Attempted)
	}
	return nil
}

// measure runs the correctness check, then the workload. An untraced
// run times the load for the full budget and then its set-up; a traced
// run spends half the budget untraced and half under the CPU profiler
// and span tracer, then drives each layer's stages.
func measure(ctx context.Context, w workload, seed uint64, budget time.Duration, traced bool) (*runRecord, error) {
	rec := &runRecord{Workload: w.name, Seed: seed, Traced: traced, Host: currentHost()}
	if err := childProcess("check", w.name, seed, ""); err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	var res *loadResult
	var err error
	if traced {
		res, err = tracedRun(ctx, w, seed, budget, rec)
	} else {
		res, err = untracedRun(ctx, w, seed, budget, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed = res.ops, res.failed
	rec.Correct = res.ops > 0 && res.failed == 0
	for _, s := range rec.Metrics {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (n=%d)", s.Name, s.N)
		}
	}
	extra := rec.Extra[:0]
	for _, s := range rec.Extra {
		if s.N > 0 {
			extra = append(extra, s)
		}
	}
	rec.Extra = extra
	return rec, nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, w workload, seed uint64, budget time.Duration, rec *runRecord) (*loadResult, error) {
	res, err := w.load(ctx, seed, budget, nil)
	if err != nil {
		return nil, err
	}
	defer res.cleanup()
	rss := maxRSSMB()
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		if err := childProcess("setup", w.name, seed, res.store); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	rec.Metrics = []sample{
		{"setup_s", median(setups), "s", len(setups)},
		opsPerSecond(res),
	}
	rec.Extra = append(append(opLatency(res, ""), res.extra...), sample{"max_rss_mb", rss, "MB", 1})
	return res, nil
}

// setupReps is how many fresh-process set-ups setup_s is the median of.
const setupReps = 7

// opsPerSecond is the load's throughput: successful operations per
// second of timed load.
func opsPerSecond(res *loadResult) sample {
	ok := res.ops - res.failed
	return sample{"ops_per_s", float64(ok) / res.elapsed.Seconds(), "1/s", ok}
}

// opLatency is the nearest-rank median and p90 of the load's operation
// latencies, named with the given prefix.
func opLatency(res *loadResult, prefix string) []sample {
	return []sample{
		{prefix + "op_p50_ms", nearestRank(res.lat, 50), "ms", len(res.lat)},
		{prefix + "op_p90_ms", nearestRank(res.lat, 90), "ms", len(res.lat)},
	}
}

// runChild is the body of a child process: one fresh-process set-up of
// a workload, or the golden check.
func runChild(kind, name string, seed uint64, store string) error {
	ctx := context.Background()
	switch kind {
	case "check":
		return checkGoldens(ctx, ".")
	case "setup":
		w, ok := lookupWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		return w.setup(ctx, seed, store)
	}
	return fmt.Errorf("unknown child %q", kind)
}

// childProcess reruns this binary as a child and waits for it.
func childProcess(kind, name string, seed uint64, store string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-child", kind, "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-store", store)
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

// runSet runs every selected workload repeat times, each run in a fresh
// child process, collects the child records into one results file and
// prints each metric's median and quartiles.
func runSet(name string, seed uint64, seconds int, traced bool, repeat int, out string) error {
	names := workloadNames()
	if name != "" {
		if _, ok := lookupWorkload(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		names = []string{name}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	var runs []runRecord
	var failed []string
	for k := 0; k < repeat; k++ {
		for _, n := range names {
			s := seed + uint64(k)
			dir := filepath.Join(out, "runs", fmt.Sprintf("%s-s%d", n, s))
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			cmd := exec.Command(self, "-workload", n, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", traceArg, "-out", dir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d: %v", n, s, err))
			}
			f, err := readResults(filepath.Join(dir, resultsName(traced)))
			if err != nil {
				continue // the child failed before writing; already reported
			}
			runs = append(runs, f.Runs...)
		}
	}
	if err := writeResults(out, traced, runs); err != nil {
		return err
	}
	fmt.Printf("\n%d runs written to %s\n", len(runs), filepath.Join(out, resultsName(traced)))
	printSummary(os.Stdout, runs)
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %v", len(failed), failed)
	}
	return nil
}

func resultsName(traced bool) string {
	if traced {
		return "trace.json"
	}
	return "results.json"
}

func writeResults(dir string, traced bool, runs []runRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(resultsFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, resultsName(traced)), append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
