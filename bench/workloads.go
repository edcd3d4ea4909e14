package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"spybox/pkg/spybox"
)

// workload is one traffic mix. load runs it until budget has elapsed;
// setup is what a fresh process pays before its first result, run in a
// child process so each set-up starts cold.
type workload struct {
	name  string
	load  func(ctx context.Context, seed uint64, budget time.Duration, tr *tracer) (*loadResult, error)
	setup func(ctx context.Context, seed uint64, store string) error
}

// loadResult is what a load measured. An operation is a trial in the
// simulation workloads and a job in serve.
type loadResult struct {
	ops, failed int
	elapsed     time.Duration
	lat         []float64 // latency of each successful operation, ms
	extra       []sample
	store       string // serve: the store directory the load left behind
}

// cleanup removes what the load left on disk.
func (r *loadResult) cleanup() {
	if r.store != "" {
		os.RemoveAll(r.store)
	}
}

// covertIDs is the reverse-engineering and covert chain: the engine's
// goroutine handoffs, the L2 model and the timing jitter take nearly
// all of its CPU, and it does essentially no victim compute.
var covertIDs = []string{"fig4", "fig5", "table1", "fig7", "fig9", "fig10", "sec6", "sec7",
	"mig", "pairs", "multigpu", "archsweep", "fabricsweep", "armsrace"}

// sidechannelIDs is the Prime+Probe chain: host-side MLP SGD in the
// victim, memorygram features and classifiers, and trial fan-out across
// cores, which the covert chain (run serially) never exercises.
var sidechannelIDs = []string{"fig11", "fig12", "fig13", "table2", "fig14", "fig15"}

// setupSeedOffset moves a set-up's warm-up experiment off every seed a
// timed pass uses.
const setupSeedOffset = 1 << 40

// A simulation run is a whole number of passes over its experiment
// list, one per passSeconds of budget rounded up: the time a pass takes
// on a 2-core Xeon. Sizing runs by work rather than by the clock keeps
// the experiment mix and the seeds of every run of a given length the
// same, however fast the host is.
var workloads = []workload{
	{"covert", simLoad(covertIDs, 1, 10), simSetup("fig5", 1)},
	{"sidechannel", simLoad(sidechannelIDs, 0, 6.5), simSetup("fig15", 0)},
	{"serve", serveLoad, serveSetup},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// simLoad runs ceil(budget/passSeconds) passes over ids at small scale,
// pass i at seed+i with the given trial parallelism (0: every core).
// Each trial is one operation, timed from the runner claiming it to its
// completion.
func simLoad(ids []string, parallel int, passSeconds float64) func(context.Context, uint64, time.Duration, *tracer) (*loadResult, error) {
	return func(ctx context.Context, seed uint64, budget time.Duration, tr *tracer) (*loadResult, error) {
		res := &loadResult{}
		perExpt := map[string][]float64{}
		passes := int(math.Ceil(budget.Seconds() / passSeconds))
		start := time.Now()
		for pass := 0; pass < passes; pass++ {
			passSpan := tr.open("pass", 0)
			var exptSpan int
			trialStart := map[int]time.Time{}
			// Events are delivered serialized, so the callback's state
			// needs no lock of its own.
			sess, err := spybox.Open(spybox.Config{
				Seed: seed + uint64(pass), Scale: spybox.Small, Parallel: parallel,
				Events: func(ev spybox.Event) {
					now := time.Now()
					switch ev.Kind {
					case spybox.TrialStart:
						trialStart[ev.Trial] = now
					case spybox.TrialDone:
						res.ops++
						if ev.Err != nil {
							res.failed++
							return
						}
						res.lat = append(res.lat, ms(now.Sub(trialStart[ev.Trial])))
						tr.record("trial", exptSpan, trialStart[ev.Trial], now)
					}
				},
			})
			if err != nil {
				return nil, err
			}
			for _, id := range ids {
				exptSpan = tr.open(id, passSpan)
				failedBefore := res.failed
				t0 := time.Now()
				_, err := sess.Run(ctx, id)
				perExpt[id] = append(perExpt[id], time.Since(t0).Seconds())
				tr.close(exptSpan)
				if err != nil && res.failed == failedBefore {
					// Failed outside any trial: still one failed operation.
					res.ops++
					res.failed++
				}
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
			}
			tr.close(passSpan)
		}
		res.elapsed = time.Since(start)
		for _, id := range ids {
			res.extra = append(res.extra, sample{"expt." + id + "_s", median(perExpt[id]), "s", len(perExpt[id])})
		}
		return res, nil
	}
}

// simSetup is a fresh process opening a session and running one
// warm-up experiment at a seed outside the timed range.
func simSetup(warmup string, parallel int) func(context.Context, uint64, string) error {
	return func(ctx context.Context, seed uint64, _ string) error {
		sess, err := spybox.Open(spybox.Config{Seed: seed + setupSeedOffset, Scale: spybox.Small, Parallel: parallel})
		if err != nil {
			return err
		}
		if _, err := sess.Run(ctx, warmup); err != nil {
			return fmt.Errorf("warm-up %s: %w", warmup, err)
		}
		return nil
	}
}
