// The serve subcommand: boot the job service over HTTP. The actual
// listen address is printed on stdout (so `-addr 127.0.0.1:0` works
// in scripts), and a SIGINT/SIGTERM drains rather than kills — running
// jobs stop at their next trial boundary and persist the results
// completed so far; queued jobs stay queued in the store (give the
// server `-store DIR` and they survive the restart).
//
// -store names a directory, and any number of serve processes may
// point at the same one: they share its append-only job log, claim
// jobs under leases, and drain one queue as a fleet. A process that
// dies mid-job stops renewing its lease, and a peer reclaims the job
// once the lease expires (-lease bounds how long that takes).

package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"spybox/pkg/spybox/service"
)

func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use port 0 to pick a free port; the chosen one is printed)")
	storeDir := fs.String("store", "", "job store directory, shareable by several serve processes (default: in-memory only)")
	owner := fs.String("owner", "", "lease owner name in a shared store (default: hostname-pid)")
	lease := fs.Duration("lease", service.DefaultLeaseTTL, "job lease TTL: how long a crashed process's jobs stay stuck before a peer reclaims them")
	poll := fs.Duration("poll", service.DefaultPoll, "how often idle workers re-check a shared store for peers' submissions")
	compact := fs.Int64("compact", service.DefaultCompactBytes, "job log size in bytes that triggers snapshot compaction")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "how many jobs run concurrently")
	queueDepth := fs.Int("queue", 256, "how many jobs may wait before submissions are refused")
	batchLimit := fs.Int("batch-limit", service.DefaultBatchLimit, "how many jobs one POST /v1/jobs:batch sweep may expand to")
	drain := fs.Duration("drain", 60*time.Second, "how long shutdown waits for in-flight jobs to persist partial results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := service.OpenLogStore(*storeDir, service.WithCompactBytes(*compact))
	if err != nil {
		return err
	}
	defer store.Close()
	svc, err := service.New(service.Options{
		Store: store, Workers: *workers, QueueDepth: *queueDepth,
		Owner: *owner, LeaseTTL: *lease, Poll: *poll, BatchLimit: *batchLimit,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("spybox: serving on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: service.NewHandler(svc)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Restore default signal disposition so a second signal kills
		// the process the old-fashioned way, then drain: cancel
		// running jobs (they stop at the next trial boundary and
		// persist partial results) and wait for the workers.
		stop()
		fmt.Fprintln(os.Stderr, "spybox: draining — in-flight jobs stop at the next trial boundary")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		drainErr := svc.Close(drainCtx)
		// Closed subscriber streams have ended the running jobs' SSE
		// handlers; give idle connections a moment, then force-close
		// whatever is left (e.g. watchers of still-queued jobs).
		shutCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel2()
		if err := srv.Shutdown(shutCtx); err != nil {
			_ = srv.Close()
		}
		return drainErr
	}
}
