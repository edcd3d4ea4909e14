// The client-side subcommands — submit, status, wait — are built
// purely on service.Client (the HTTP client of a `spybox serve`
// process). Nothing here touches the library's Session directly: if a
// capability is missing from the HTTP API, these commands can't paper
// over it, which is the point.

package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/service"
)

func submitCmd(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "spybox serve address")
	seed := fs.Uint64("seed", 0, "experiment seed (0 means the server default, "+fmt.Sprint(spybox.DefaultSeed)+")")
	scaleStr := fs.String("scale", "", "experiment scale: "+strings.Join(spybox.ScaleNames(), ", ")+" (empty means default)")
	archName := fs.String("arch", "", "architecture profile to simulate (empty means the paper's machine)")
	parallel := fs.Int("parallel", 0, "per-job trial worker pool (0 means every core; results are identical at any value)")
	priority := fs.Int("priority", 0, "claim priority: higher jumps ahead of queued lower-priority work (default 0, the bulk tier)")
	wait := fs.Bool("wait", false, "wait for the job and print its results (like 'spybox wait')")
	format := fs.String("format", "text", "with -wait: text (human reports) or json (the report/v1 document)")
	progress := fs.Bool("progress", false, "with -wait: stream the job's progress events to stderr")
	if len(args) == 0 {
		return fmt.Errorf("submit: missing experiment ID (try 'spybox list' or 'all')")
	}
	ids := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("submit: unknown format %q (text|json)", *format)
	}
	// "all" travels as an empty list, which the server expands.
	// Validation is left to the server: these commands prove the HTTP
	// API is enough.
	exps := splitList(ids)
	if ids == "all" {
		exps = nil
	}
	cli := service.NewClient(*addr)
	id, err := cli.Submit(spybox.JobSpec{
		Experiments: exps, Seed: *seed, Scale: *scaleStr, Arch: *archName, Parallel: *parallel,
		Priority: *priority,
	})
	if err != nil {
		return err
	}
	if !*wait {
		fmt.Println(id)
		return nil
	}
	return waitAndPrint(cli, id, *format, *progress)
}

func statusCmd(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "spybox serve address")
	asJSON := fs.Bool("json", false, "emit the full JobStatus as JSON")
	if len(args) == 0 {
		return fmt.Errorf("status: missing job ID (as printed by 'spybox submit')")
	}
	id := spybox.JobID(args[0])
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	cli := service.NewClient(*addr)
	status, err := cli.Job(id)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(status)
	}
	fmt.Println(statusLine(status))
	return nil
}

// statusLine renders one human line of a JobStatus.
func statusLine(st spybox.JobStatus) string {
	line := fmt.Sprintf("%-8s %-9s %d/%d experiments", st.ID, st.State, st.Done, st.Total)
	if st.CacheHits > 0 {
		line += fmt.Sprintf(" (%d from cache)", st.CacheHits)
	}
	if st.Error != "" {
		line += " — " + st.Error
	}
	return line
}

func waitCmd(args []string) error {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "spybox serve address")
	format := fs.String("format", "text", "text (human reports) or json (the report/v1 document)")
	progress := fs.Bool("progress", false, "stream the job's progress events to stderr while waiting")
	if len(args) == 0 {
		return fmt.Errorf("wait: missing job ID (as printed by 'spybox submit')")
	}
	id := spybox.JobID(args[0])
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("wait: unknown format %q (text|json)", *format)
	}
	return waitAndPrint(service.NewClient(*addr), id, *format, *progress)
}

// waitAndPrint waits for the job (streaming progress when asked) and
// prints its results — the report/v1 document in json mode, the text
// reports otherwise. A job that ended cancelled or failed still gets
// its partial results printed, then a non-zero exit. A SIGINT stops
// the waiting, not the remote job — cancel with DELETE (or resubmit
// and Cancel) if that's what you want; the job keeps running
// server-side by design.
func waitAndPrint(cli *service.Client, id spybox.JobID, format string, progress bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var status spybox.JobStatus
	var err error
	if progress {
		status, err = cli.Events(ctx, id, printEventMsg)
	} else {
		status, err = cli.Wait(ctx, id)
	}
	if err != nil {
		return err
	}
	// A draining server ends the wait with the job's non-terminal
	// status (it stays queued in the store for the next start); there
	// are no results to fetch yet, so say that instead of tripping
	// over the result endpoint's 409.
	if !status.State.Terminal() {
		return fmt.Errorf("server stopped before %s ran (still %s) — it stays queued if the server has -store; wait again after restart",
			status.ID, status.State)
	}
	if format == "json" {
		doc, err := cli.ResultDocument(id)
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(doc); err != nil {
			return err
		}
	} else {
		results, err := cli.Result(id)
		if err != nil {
			return err
		}
		for _, r := range results {
			if err := r.Print(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	if status.State != spybox.JobDone {
		return fmt.Errorf("%s %s after %d/%d experiments: %s",
			status.ID, status.State, status.Done, status.Total, status.Error)
	}
	return nil
}

// printEventMsg renders one wire progress event to stderr, with the
// run clock and — on trial completions — the observed trial rate.
func printEventMsg(ev service.EventMsg) {
	elapsed := ev.ElapsedMS / 1000
	switch ev.Kind {
	case "experiment-start":
		fmt.Fprintf(os.Stderr, "spybox: %s: %s: start — %s\n", ev.Job, ev.Experiment, ev.Title)
	case "experiment-done":
		if ev.Error != "" {
			fmt.Fprintf(os.Stderr, "spybox: %s: %s: failed after %.1fs: %s\n", ev.Job, ev.Experiment, elapsed, ev.Error)
		} else {
			fmt.Fprintf(os.Stderr, "spybox: %s: %s: done in %.1fs\n", ev.Job, ev.Experiment, elapsed)
		}
	case "trial-start":
		fmt.Fprintf(os.Stderr, "spybox: %s: %s: trial %d/%d start [%.1fs]\n", ev.Job, ev.Experiment, ev.Trial+1, ev.Trials, elapsed)
	case "trial-done":
		if ev.Error != "" {
			fmt.Fprintf(os.Stderr, "spybox: %s: %s: trial %d/%d failed [%.1fs]: %s\n", ev.Job, ev.Experiment, ev.Trial+1, ev.Trials, elapsed, ev.Error)
		} else {
			fmt.Fprintf(os.Stderr, "spybox: %s: %s: trial %d/%d done [%.1fs]\n", ev.Job, ev.Experiment, ev.Trial+1, ev.Trials, elapsed)
		}
	}
}
