// The trial runner: experiments decompose into independent trials
// (one simulated Machine each), the runner fans them out over a
// bounded worker pool, and results are merged in trial order. Because
// every trial's seed is derived only from (run seed, trial index) and
// merging ignores completion order, a run is bit-identical at any
// parallelism level — `-parallel 1` and `-parallel 8` produce the same
// reports, metrics, and artifacts. EXPERIMENTS.md lists which
// experiments are trial-decomposed and at what granularity.
//
// The runner is also where cancellation and progress live: it checks
// Params.Ctx before claiming each trial (so a SIGINT'd run stops at
// the next trial boundary instead of being killed mid-flight) and
// reports per-trial start/finish through Params.Hooks.
package expt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"spybox/internal/sim"
	"spybox/internal/xrand"
)

// poolingDisabled turns off machine reuse in the runner (trials then
// build every machine fresh). Test hook: the pooled-determinism tests
// flip it to prove reused and fresh runs are byte-identical — which is
// also why it cannot perturb results: either setting must produce the
// same bytes, and TestPoolingObservablyInvisible pins that.
//
//spylint:allow detrand test hook; pooled and fresh runs are proven byte-identical
var poolingDisabled bool

// newTrialSlot returns the machine slot for one trial worker, or nil
// when pooling is disabled.
func newTrialSlot() *sim.MachineSlot {
	if poolingDisabled {
		return nil
	}
	return new(sim.MachineSlot)
}

// Trial identifies one unit of runner work: its index within the
// experiment and the Params the trial body should run with. The
// embedded Params carry the trial's derived seed and always have
// Parallel == 1, so a trial can never recursively fan out.
type Trial struct {
	Index  int
	Params Params
}

// TrialSeed derives the seed for a trial from the run seed: trial i
// gets the ith output of the splitmix64 stream seeded with the run
// seed. Well-mixed, collision-free across indices, and a pure
// function of (seed, trial) — the property that makes parallel and
// serial runs identical.
func TrialSeed(seed uint64, trial int) uint64 {
	return xrand.SplitMix64At(seed, uint64(trial))
}

// parallelism resolves the effective worker count: Params.Parallel
// when positive, otherwise every available core.
func (p Params) parallelism() int {
	if p.Parallel > 0 {
		return p.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// RunTrials executes n independent trials over a worker pool of
// p.parallelism() goroutines and returns the outputs in trial order.
// Each trial receives Params with its TrialSeed-derived seed. On
// failure the error of the lowest-indexed failing trial is returned —
// the same one a serial run would have stopped at. A cancelled
// context wins only when no trial failed; the returned error then
// wraps the context's error.
//
// The run's trials share one setup memo (memo.go): condition trials
// that start from the run seed's attack setup compute it once between
// them. It is p.Memo when set (a session's), otherwise a memo of the
// run's own, dropped when RunTrials returns.
func RunTrials[T any](p Params, n int, run func(t Trial) (T, error)) ([]T, error) {
	memo := p.Memo
	if memo == nil {
		memo = NewSetupMemo(p.Seed)
	}
	return runPool(p.ctx(), p.Hooks, p.Job, p.parallelism(), n, func(i int, slot *sim.MachineSlot) (T, error) {
		tp := p
		tp.Seed = TrialSeed(p.Seed, i)
		tp.Parallel = 1
		tp.Hooks = nil // trials never recursively observe
		tp.slot = slot // the worker's machine is reused across its trials
		tp.Memo = memo
		return run(Trial{Index: i, Params: tp})
	})
}

// OneTrial adapts a monolithic single-shot experiment body to the
// trial API: one inline trial carrying the run's own seed (no
// derivation), so existing single-shot experiments keep their exact
// historical outputs — including their errors, which gain no
// "trial 0" framing because there are no trials to speak of. The
// adapter still honours cancellation (checked before the body runs;
// single-shot bodies are not interruptible mid-flight) and reports
// the body as trial 0 of 1 to the progress hooks.
func OneTrial(body func(Params) (*Result, error)) func(Params) (*Result, error) {
	return func(p Params) (*Result, error) {
		if err := p.ctx().Err(); err != nil {
			return nil, fmt.Errorf("run cancelled: %w", err)
		}
		hooks, job := p.Hooks, p.Job
		p.Hooks = nil
		hooks.start(job, 0, 1)
		r, err := body(p)
		hooks.done(job, 0, 1, err)
		return r, err
	}
}

// runPool is the bounded fan-out behind RunTrials: `workers`
// goroutines claim indices 0..n-1 in order and write results into an
// index-addressed slice, which is what makes the merge step
// order-independent of scheduling. Each worker owns one machine slot,
// passed to run and released after every trial, so a machine is reused
// within a worker but never migrates between goroutines. One worker is
// simply the smallest pool: trials run in index order on it.
func runPool[T any](ctx context.Context, hooks *TrialHooks, job string, workers, n int, run func(i int, slot *sim.MachineSlot) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	var (
		next      atomic.Int64
		lowestErr atomic.Int64 // lowest failing index seen so far
		mu        sync.Mutex
		errTrial  = n
		firstErr  error
		cancelled atomic.Int64 // lowest index refused because ctx was done
		wg        sync.WaitGroup
	)
	next.Store(-1)
	lowestErr.Store(int64(n))
	cancelled.Store(int64(n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := newTrialSlot()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				// A done context stops the pool at the next trial
				// boundary: in-flight trials finish (their machines
				// stay consistent), unclaimed trials are abandoned.
				if ctx.Err() != nil {
					for {
						c := cancelled.Load()
						if int64(i) >= c || cancelled.CompareAndSwap(c, int64(i)) {
							break
						}
					}
					return
				}
				// Skip trials above the lowest failure seen so far:
				// their results would be discarded anyway. lowestErr
				// only decreases, so every skipped index stays above
				// the final errTrial — trials at or below it all run,
				// and the lowest-indexed error (the one a serial run
				// stops at) still wins.
				if int64(i) > lowestErr.Load() {
					continue
				}
				hooks.start(job, i, n)
				v, err := run(i, slot)
				slot.Release()
				hooks.done(job, i, n, err)
				if err != nil {
					mu.Lock()
					if i < errTrial {
						errTrial, firstErr = i, err
					}
					lowestErr.Store(int64(errTrial))
					mu.Unlock()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("trial %d: %w", errTrial, firstErr)
	}
	if c := cancelled.Load(); c < int64(n) {
		return nil, fmt.Errorf("run cancelled before trial %d/%d: %w", c, n, ctx.Err())
	}
	return out, nil
}
