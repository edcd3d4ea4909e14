// Command spybox regenerates the paper's tables and figures on a
// simulated multi-GPU box (the paper's DGX-1 by default; see -arch).
// It is a thin client of the public pkg/spybox library API — anything
// it does, external programs can do too.
//
// Usage:
//
//	spybox list [-json]
//	spybox run <id>[,<id>...]|all [-seed N] [-scale SCALE] [-arch PROFILE]
//	           [-parallel N] [-format text|json] [-out DIR] [-progress]
//	spybox serve [-addr HOST:PORT] [-store DIR] [-workers N] [-queue N]
//	           [-owner NAME] [-lease DUR] [-poll DUR] [-compact BYTES]
//	spybox submit <id>[,<id>...]|all [-addr] [-seed N] [-scale SCALE] [-arch P]
//	           [-parallel N] [-wait [-format text|json] [-progress]]
//	spybox batch <id>[,<id>...]|all [-addr] [-seeds N,N,...] [-scales S,S,...]
//	           [-arch P] [-parallel N] [-client NAME] [-wait] [-json]
//	spybox batch-status <batch> [-addr] [-json]
//	spybox status <job> [-addr] [-json]
//	spybox wait <job> [-addr] [-format text|json] [-progress]
//
// run executes experiments in this process. With -format text (the
// default) each experiment prints its report to stdout with its wall
// time; -format json emits one schema-versioned JSON document for the
// whole run instead. A SIGINT cancels the run at the next trial
// boundary: completed experiments are kept (and still encoded in JSON
// mode) and the exit status is non-zero.
//
// serve boots the job service (pkg/spybox/service) over HTTP; submit,
// status, and wait are pure HTTP clients of it — duplicate
// submissions are answered from done jobs in the server's store, and a
// job's report/v1 output is byte-identical to `spybox run` with the
// same seed, scale, and arch. See README.md in this directory for the
// full subcommand and flag reference.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		if err := listCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	case "run":
		if err := runCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	case "serve":
		if err := serveCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	case "submit":
		if err := submitCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	case "batch":
		if err := batchCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	case "batch-status":
		if err := batchStatusCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	case "status":
		if err := statusCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	case "wait":
		if err := waitCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	default:
		usage()
		os.Exit(2)
	}
}

// fail prints one "spybox:"-prefixed line and exits; library errors
// already carry the prefix, which would otherwise double up.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "spybox:", strings.TrimPrefix(err.Error(), "spybox: "))
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  spybox list [-json]
  spybox run <id>[,<id>...]|all [-seed N] [-scale `+strings.Join(spybox.ScaleNames(), "|")+`] [-arch PROFILE] [-parallel N] [-format text|json] [-out DIR] [-progress]
  spybox serve [-addr HOST:PORT] [-store DIR] [-workers N] [-queue N] [-drain DUR] [-owner NAME] [-lease DUR] [-poll DUR] [-compact BYTES] [-batch-limit N]
  spybox submit <id>[,<id>...]|all [-addr HOST:PORT] [-seed N] [-scale SCALE] [-arch PROFILE] [-parallel N] [-wait [-format text|json] [-progress]]
  spybox batch <id>[,<id>...]|all [-addr HOST:PORT] [-seeds N,N,...] [-scales S,S,...] [-arch PROFILE] [-parallel N] [-client NAME] [-wait] [-json]
  spybox batch-status <batch> [-addr HOST:PORT] [-json]
  spybox status <job> [-addr HOST:PORT] [-json]
  spybox wait <job> [-addr HOST:PORT] [-format text|json] [-progress]`)
}

// printJSON writes one indented JSON value to stdout.
func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func listCmd(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the experiment index as JSON (ID, title, trial decomposition, headline metric keys)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	infos := spybox.Experiments()
	if *asJSON {
		b, err := json.MarshalIndent(infos, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	for _, e := range infos {
		fmt.Printf("%-8s %s\n", e.ID, e.Title)
	}
	return nil
}

// selectIDs resolves a comma-separated ID list (or "all") to
// experiment IDs, validated and deduplicated in the order given.
// Validation happens entirely up front: every unknown ID is reported
// in one error alongside the valid names, before any trial starts.
func selectIDs(ids string) ([]string, error) {
	if ids == "all" {
		return spybox.ExpandIDs()
	}
	todo := splitList(ids)
	if len(todo) == 0 {
		return nil, fmt.Errorf("no experiment IDs in %q", ids)
	}
	return spybox.ExpandIDs(todo...)
}

// progressEvents prints the session's event stream to stderr, with
// the run clock on every line and the observed completion rate on
// trial finishes (trials complete out of order under -parallel, so
// the rate counts completions rather than trusting the index; the
// denominator is time since the experiment started, not since the
// whole run did, so later experiments' rates stay honest).
type progressEvents struct {
	trialsDone int
	expStart   time.Duration // run clock when the current experiment began
}

func (p *progressEvents) print(ev spybox.Event) {
	elapsed := ev.Elapsed.Seconds()
	switch ev.Kind {
	case spybox.ExperimentStart:
		p.trialsDone = 0
		p.expStart = ev.Elapsed
		fmt.Fprintf(os.Stderr, "spybox: %s: start — %s\n", ev.Experiment, ev.Title)
	case spybox.ExperimentDone:
		if ev.Err != nil {
			fmt.Fprintf(os.Stderr, "spybox: %s: failed after %.1fs: %v\n", ev.Experiment, elapsed, ev.Err)
		} else {
			fmt.Fprintf(os.Stderr, "spybox: %s: done in %.1fs\n", ev.Experiment, elapsed)
		}
	case spybox.TrialStart:
		fmt.Fprintf(os.Stderr, "spybox: %s: trial %d/%d start [%.1fs]\n", ev.Experiment, ev.Trial+1, ev.Trials, elapsed)
	case spybox.TrialDone:
		p.trialsDone++
		rate := ""
		if expElapsed := (ev.Elapsed - p.expStart).Seconds(); expElapsed > 0 {
			rate = fmt.Sprintf(", %.1f trials/s", float64(p.trialsDone)/expElapsed)
		}
		if ev.Err != nil {
			fmt.Fprintf(os.Stderr, "spybox: %s: trial %d/%d failed [%.1fs%s]: %v\n", ev.Experiment, ev.Trial+1, ev.Trials, elapsed, rate, ev.Err)
		} else {
			fmt.Fprintf(os.Stderr, "spybox: %s: trial %d/%d done [%.1fs%s]\n", ev.Experiment, ev.Trial+1, ev.Trials, elapsed, rate)
		}
	}
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Uint64("seed", spybox.DefaultSeed, "experiment seed (results are deterministic per seed)")
	scaleStr := fs.String("scale", "default", "experiment scale: "+strings.Join(spybox.ScaleNames(), ", "))
	archName := fs.String("arch", "", "architecture profile to simulate: "+strings.Join(spybox.ProfileNames(), ", ")+
		" (default p100-dgx1, the paper's machine)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker pool size for trial-decomposed experiments (results are identical at any value)")
	format := fs.String("format", "text", "output format: text (human reports) or json (one schema-versioned document)")
	outDir := fs.String("out", "", "directory for CSV chart data and artifacts (optional)")
	progress := fs.Bool("progress", false, "print per-experiment and per-trial progress to stderr")
	if len(args) == 0 {
		return fmt.Errorf("run: missing experiment ID (try 'spybox list' or 'all')")
	}
	ids := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	scale, err := spybox.ParseScale(*scaleStr)
	if err != nil {
		return err
	}
	if *parallel < 1 {
		return fmt.Errorf("run: -parallel must be >= 1 (got %d)", *parallel)
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("run: unknown format %q (text|json)", *format)
	}
	cfg := spybox.Config{Seed: *seed, Scale: scale, Parallel: *parallel, Arch: *archName}
	if *progress {
		cfg.Events = (&progressEvents{}).print
	}
	sess, err := spybox.Open(cfg)
	if err != nil {
		return err
	}
	todo, err := selectIDs(ids)
	if err != nil {
		return err
	}

	// A SIGINT (or SIGTERM) cancels the run at the next trial
	// boundary instead of killing in-flight work on the floor. The
	// first signal only cancels the context; restoring the default
	// disposition right after means a second signal kills the process
	// the old-fashioned way (an uncancellable trial can't trap the
	// user).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	var results []*spybox.Result
	var runErr error
	total := time.Now()
	for _, id := range todo {
		start := time.Now()
		res, err := sess.Run(ctx, id)
		results = append(results, res...)
		if err != nil {
			runErr = err
			break
		}
		if *format == "text" {
			if err := res[0].Print(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
		if err := writeOutputs(*outDir, res[0], *format == "text"); err != nil {
			return err
		}
	}
	if *format == "text" && runErr == nil && len(todo) > 1 {
		fmt.Printf("(%d experiments completed in %.1fs, -parallel %d)\n",
			len(todo), time.Since(total).Seconds(), *parallel)
	}
	if *format == "json" {
		// The document still carries every completed result when the
		// run was interrupted: partial output is labelled, not lost.
		if err := report.Encode(os.Stdout, results...); err != nil {
			return err
		}
	}
	var interrupted *spybox.InterruptedError
	if errors.As(runErr, &interrupted) {
		return fmt.Errorf("run interrupted after %d/%d experiments: %v",
			len(results), len(todo), interrupted.Cause)
	}
	return runErr
}

// writeOutputs persists a result's chart data and binary artifacts
// under dir (no-op when dir is empty). Notes print only in text mode
// so JSON output stays a single well-formed document on stdout.
func writeOutputs(dir string, res *spybox.Result, notes bool) error {
	if dir == "" {
		return nil
	}
	if len(res.Series) > 0 {
		if err := writeCSV(dir, res, notes); err != nil {
			return err
		}
	}
	// Sorted order: map iteration would shuffle the output between
	// otherwise identical runs.
	names := make([]string, 0, len(res.Artifacts))
	for name := range res.Artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, res.Artifacts[name], 0o644); err != nil {
			return err
		}
		if notes {
			fmt.Printf("(artifact written to %s)\n", path)
		}
	}
	return nil
}

func writeCSV(dir string, res *spybox.Result, notes bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, res.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.CSV(f, res.Series); err != nil {
		f.Close()
		return err
	}
	// A short write can surface only at close (full disk); swallowing
	// it would print success over a truncated CSV.
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if notes {
		fmt.Printf("(chart data written to %s)\n\n", path)
	}
	return nil
}
