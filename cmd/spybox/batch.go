// The batch subcommand: submit a sweep — experiments × scales ×
// seeds — in one request, which the server expands into one job per
// combination (POST /v1/jobs:batch), then optionally wait for the
// whole batch. Like submit/status/wait, it is a pure client of the
// HTTP API.

package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/service"
)

// splitSeeds parses a comma-separated seed list ("1,2,3").
func splitSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range splitList(s) {
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("batch: bad seed %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitList splits a comma-separated string list, dropping blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func batchCmd(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "spybox serve address")
	seeds := fs.String("seeds", "", "comma-separated seed list (empty means the server default seed)")
	scales := fs.String("scales", "", "comma-separated scale list: "+strings.Join(spybox.ScaleNames(), ", ")+" (empty means default)")
	archName := fs.String("arch", "", "architecture profile to simulate (empty means the paper's machine)")
	parallel := fs.Int("parallel", 0, "per-job trial worker pool (0 means every core; results are identical at any value)")
	client := fs.String("client", "", "fairness label: batches sharing it share one round-robin scheduling slot")
	priority := fs.Int("priority", 0, "claim priority for every job in the batch (default 0, the bulk tier)")
	wait := fs.Bool("wait", false, "wait until every job in the batch is terminal, reporting progress")
	asJSON := fs.Bool("json", false, "emit the BatchStatus as JSON")
	if len(args) == 0 {
		return fmt.Errorf("batch: missing experiment ID (try 'spybox list' or 'all')")
	}
	ids := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	seedList, err := splitSeeds(*seeds)
	if err != nil {
		return err
	}
	exps := splitList(ids)
	if ids == "all" {
		exps = nil // the server expands an empty list to every experiment
	}
	cli := service.NewClient(*addr)
	st, err := cli.SubmitBatch(service.BatchSpec{
		Experiments: exps,
		Scales:      splitList(*scales),
		Seeds:       seedList,
		Arch:        *archName,
		Parallel:    *parallel,
		Client:      *client,
		Priority:    *priority,
	})
	if err != nil {
		return err
	}
	if !*wait {
		if *asJSON {
			return printJSON(st)
		}
		fmt.Printf("%s: %d jobs (%s..%s)\n", st.ID, st.Total, st.Jobs[0], st.Jobs[len(st.Jobs)-1])
		return nil
	}
	// A SIGINT stops the waiting, not the batch — the jobs keep
	// draining server-side; cancel them individually if that's what
	// you want.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err = cli.WaitBatch(ctx, st.ID)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(st)
	}
	fmt.Printf("%s: %d jobs — %d done, %d failed, %d cancelled\n",
		st.ID, st.Total, st.Done, st.Failed, st.Cancelled)
	if st.Failed > 0 || st.Cancelled > 0 {
		return fmt.Errorf("batch %s finished with %d failed and %d cancelled jobs", st.ID, st.Failed, st.Cancelled)
	}
	return nil
}

func batchStatusCmd(args []string) error {
	fs := flag.NewFlagSet("batch-status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "spybox serve address")
	asJSON := fs.Bool("json", false, "emit the BatchStatus as JSON")
	if len(args) == 0 {
		return fmt.Errorf("batch-status: missing batch ID (as printed by 'spybox batch')")
	}
	id := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	st, err := service.NewClient(*addr).Batch(id)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(st)
	}
	fmt.Printf("%s: %d jobs — %d queued, %d running, %d done, %d failed, %d cancelled\n",
		st.ID, st.Total, st.Queued, st.Running, st.Done, st.Failed, st.Cancelled)
	return nil
}
