package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

// newTestService starts a service that is drained at test end.
func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Close(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return svc
}

func smallSpec(ids ...string) spybox.JobSpec {
	return spybox.JobSpec{Experiments: ids, Scale: "small", Parallel: 1}
}

// encode renders results as the report/v1 document, for byte-level
// comparison.
func encode(t *testing.T, results []*report.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.Encode(&buf, results...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitUntil polls cond every 5ms until it holds or the deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSubmitValidation(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	cases := []struct {
		spec spybox.JobSpec
		want string
	}{
		{smallSpec("bogus", "fig4", "nope"), `unknown experiments "bogus", "nope"`},
		{spybox.JobSpec{Experiments: []string{"fig4"}, Scale: "huge"}, "unknown scale"},
		{spybox.JobSpec{Experiments: []string{"fig4"}, Arch: "z80"}, "profile"},
		{spybox.JobSpec{Experiments: []string{"fig4"}, Parallel: -1}, "Parallel"},
	}
	for _, tc := range cases {
		if _, err := svc.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Submit(%+v) error %v, want substring %q", tc.spec, err, tc.want)
		}
	}
	// A bad spec runs nothing: the store stays empty.
	if jobs, _ := svc.Jobs(); len(jobs) != 0 {
		t.Errorf("invalid submissions left %d jobs", len(jobs))
	}
	// The unknown-ID error names the valid experiments.
	_, err := svc.Submit(smallSpec("bogus"))
	if err == nil || !strings.Contains(err.Error(), "valid: fig4,") {
		t.Errorf("unknown-ID error does not list valid names: %v", err)
	}
}

func TestJobLifecycleCacheAndByteIdentity(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1})
	id, err := svc.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	status, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != spybox.JobDone || status.Done != 1 || status.Total != 1 || status.CacheHits != 0 {
		t.Fatalf("first job status: %+v", status)
	}
	// The spec is normalized: defaults filled, arch resolved.
	if status.Spec.Seed != spybox.DefaultSeed || status.Spec.Arch != "p100-dgx1" {
		t.Errorf("spec not normalized: %+v", status.Spec)
	}
	results, err := svc.Result(id)
	if err != nil || len(results) != 1 {
		t.Fatalf("Result = %d results, %v", len(results), err)
	}

	// Byte-identical to a direct Session.Run with the same config.
	sess, err := spybox.Open(spybox.Config{Scale: spybox.Small, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sess.Run(context.Background(), "fig4")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, results), encode(t, direct)) {
		t.Error("service result differs from direct Session.Run")
	}

	// The duplicate is served from cache — and still byte-identical.
	id2, err := svc.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	status2, err := svc.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if status2.State != spybox.JobDone || status2.CacheHits != 1 {
		t.Fatalf("duplicate status: %+v", status2)
	}
	results2, err := svc.Result(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, results2), encode(t, results)) {
		t.Error("cached result differs from simulated result")
	}
	hits, misses := svc.hits.Load(), svc.misses.Load()
	if hits != 1 || misses != 1 {
		t.Errorf("cache counters: %d hits, %d misses; want 1, 1", hits, misses)
	}
	st, err := svc.Stats()
	if err != nil || st.Done != 2 || st.CacheHits != 1 || st.CacheSize != 1 {
		t.Errorf("Stats = %+v, %v", st, err)
	}
}

// TestConcurrentSubmits is the acceptance scenario: 8 concurrent
// submissions of seeded experiments, every result byte-identical to a
// direct Session.Run of the same (seed, experiment).
func TestConcurrentSubmits(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 4})
	type sub struct {
		seed uint64
		id   spybox.JobID
	}
	subs := make([]sub, 8)
	var wg sync.WaitGroup
	errc := make(chan error, len(subs))
	for i := range subs {
		subs[i].seed = uint64(100 + i/2) // four distinct seeds, each submitted twice
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := smallSpec("fig4")
			spec.Seed = subs[i].seed
			id, err := svc.Submit(spec)
			if err != nil {
				errc <- err
				return
			}
			subs[i].id = id
			if _, err := svc.Wait(context.Background(), id); err != nil {
				errc <- err
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for _, s := range subs {
		status, err := svc.Job(s.id)
		if err != nil || status.State != spybox.JobDone {
			t.Fatalf("job %s: %+v, %v", s.id, status, err)
		}
		results, err := svc.Result(s.id)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := spybox.Open(spybox.Config{Seed: s.seed, Scale: spybox.Small, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sess.Run(context.Background(), "fig4")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, results), encode(t, direct)) {
			t.Errorf("seed %d: concurrent service result differs from direct run", s.seed)
		}
	}
}

func TestCancelQueuedNeverStarts(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1})
	// Occupy the only worker, then queue a second job behind it.
	long, err := svc.Submit(smallSpec("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first job running", func() bool {
		st, _ := svc.Job(long)
		return st.State == spybox.JobRunning
	})
	queued, err := svc.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Job(queued)
	if err != nil || st.State != spybox.JobCancelled || st.Done != 0 {
		t.Fatalf("cancelled-queued status: %+v, %v", st, err)
	}
	if !strings.Contains(st.Error, "before start") {
		t.Errorf("cancelled-queued error: %q", st.Error)
	}
	if results, err := svc.Result(queued); err != nil || len(results) != 0 {
		t.Errorf("cancelled-queued results: %d, %v", len(results), err)
	}
	// Cancelling a terminal job is a no-op, not an error.
	if err := svc.Cancel(queued); err != nil {
		t.Errorf("re-cancel: %v", err)
	}
	if _, err := svc.Wait(context.Background(), long); err != nil {
		t.Fatal(err)
	}
	// The worker never ran the cancelled job.
	if st, _ := svc.Job(queued); st.State != spybox.JobCancelled || st.Done != 0 {
		t.Errorf("cancelled job was touched by the worker: %+v", st)
	}
}

func TestCancelRunningKeepsPartialResults(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1})
	id, err := svc.Submit(smallSpec("fig4", "fig9"))
	if err != nil {
		t.Fatal(err)
	}
	// Let the fast first experiment finish, then cancel during the
	// second (fig9 runs multiple trials, so there is a boundary to
	// stop at).
	waitUntil(t, "first experiment done", func() bool {
		st, _ := svc.Job(id)
		return st.Done >= 1 || st.State.Terminal()
	})
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	status, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != spybox.JobCancelled {
		t.Fatalf("status after cancel: %+v", status)
	}
	if !strings.Contains(status.Error, "interrupted") {
		t.Errorf("cancellation cause not an interruption: %q", status.Error)
	}
	results, err := svc.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != status.Done || len(results) < 1 || results[0].ID != "fig4" {
		t.Errorf("partial results: %d (status.Done %d)", len(results), status.Done)
	}
}

func TestCloseDrains(t *testing.T) {
	t.Parallel()
	svc, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	running, err := svc.Submit(smallSpec("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job running", func() bool {
		st, _ := svc.Job(running)
		return st.State == spybox.JobRunning
	})
	queued, err := svc.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	// A Wait pending on the queued job must be released by the drain
	// (no worker will ever claim the job), returning its still-queued
	// status rather than hanging.
	waited := make(chan spybox.JobStatus, 1)
	go func() {
		st, _ := svc.Wait(context.Background(), queued)
		waited <- st
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-waited:
		if st.State != spybox.JobQueued {
			t.Errorf("drained Wait returned %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait on a queued job hung through the drain")
	}
	// The running job went terminal (cancelled at a trial boundary,
	// or done if it beat the drain); the queued one is still queued,
	// ready for a restart to pick up.
	st, err := svc.Job(running)
	if err != nil || !st.State.Terminal() {
		t.Errorf("in-flight job after drain: %+v, %v", st, err)
	}
	if st.State == spybox.JobCancelled && !strings.Contains(st.Error, "interrupted") {
		t.Errorf("drained job error: %q", st.Error)
	}
	if st, _ := svc.Job(queued); st.State != spybox.JobQueued {
		t.Errorf("queued job after drain: %+v", st)
	}
	if _, err := svc.Submit(smallSpec("fig4")); !errors.Is(err, spybox.ErrClosed) {
		t.Errorf("Submit after Close: %v", err)
	}
	// Close is idempotent.
	if err := svc.Close(ctx); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestWatchStreamsJobTaggedEvents(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1})
	id, err := svc.Submit(smallSpec("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := svc.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	var events []spybox.Event
	for ev := range ch { // closes when the job goes terminal
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no events observed")
	}
	sawTrialDone := false
	var lastElapsed time.Duration
	for _, ev := range events {
		if ev.Job != id {
			t.Fatalf("event for job %q on %q's stream", ev.Job, id)
		}
		if ev.Kind == spybox.TrialDone {
			sawTrialDone = true
			if ev.Elapsed < lastElapsed {
				t.Errorf("Elapsed went backwards: %v after %v", ev.Elapsed, lastElapsed)
			}
			lastElapsed = ev.Elapsed
		}
	}
	if !sawTrialDone {
		t.Errorf("no trial-done among %d events", len(events))
	}
	// Watching a finished job yields a closed (empty) stream.
	ch2, unsub2, err := svc.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub2()
	if _, open := <-ch2; open {
		t.Error("terminal job's stream delivered an event")
	}
	if _, _, err := svc.Watch("job-999"); !errors.Is(err, spybox.ErrNoJob) {
		t.Errorf("Watch on unknown job: %v", err)
	}
}

func TestLogStoreRestartRequeues(t *testing.T) {
	t.Parallel()
	store, err := OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Seed the store as a dead server would have left it: one job
	// still queued, one caught mid-run (its lease long expired with
	// its owner), one already done.
	queued := rec("job-2", spybox.JobQueued)
	midRun := rec("job-3", spybox.JobRunning)
	finished := rec("job-1", spybox.JobDone)
	finished.Status.Done = 1
	for _, r := range []Record{finished, queued, midRun} {
		if err := store.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	svc := newTestService(t, Options{Workers: 1, Store: store})
	for _, id := range []spybox.JobID{"job-2", "job-3"} {
		status, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if status.State != spybox.JobDone || status.Done != 1 {
			t.Errorf("requeued %s finished as %+v", id, status)
		}
	}
	if st, _ := svc.Job("job-1"); st.State != spybox.JobDone {
		t.Errorf("terminal job disturbed by restart: %+v", st)
	}
	// New IDs continue after the highest stored sequence number.
	id, err := svc.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-4" {
		t.Errorf("post-restart ID %s, want job-4", id)
	}
}

func TestDeleteForgetsJob(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1})
	id, err := svc.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if err := svc.Delete(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Job(id); !errors.Is(err, spybox.ErrNoJob) {
		t.Errorf("deleted job still known: %v", err)
	}
	if err := svc.Delete(context.Background(), id); !errors.Is(err, spybox.ErrNoJob) {
		t.Errorf("double delete: %v", err)
	}
}

// TestResultBeforeTerminal pins the Wait-first contract.
func TestResultBeforeTerminal(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1})
	id, err := svc.Submit(smallSpec("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Result(id); err == nil {
		t.Error("Result on a live job succeeded")
	} else if errors.Is(err, spybox.ErrNoJob) {
		t.Errorf("live job misreported as unknown: %v", err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Result(id); err != nil {
		t.Errorf("Result after Wait: %v", err)
	}
}

// TestWaitHonoursContext: a Wait bounded by a context returns when
// the context does, without disturbing the job.
func TestWaitHonoursContext(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1})
	id, err := svc.Submit(smallSpec("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := svc.Wait(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("bounded Wait: %v", err)
	}
	status, err := svc.Wait(context.Background(), id)
	if err != nil || status.State != spybox.JobDone {
		t.Errorf("job after abandoned Wait: %+v, %v", status, err)
	}
}

// claimGetFailStore wraps a Store and fails the first Get that
// follows the first successful Claim, simulating a transient store
// read error in the claim-to-run window.
type claimGetFailStore struct {
	Store
	mu      sync.Mutex
	armed   bool // a Claim succeeded; the next Get fails
	tripped bool // the one injected failure has been served
}

func (s *claimGetFailStore) Claim(owner string, ttl time.Duration) (Record, bool, error) {
	rec, ok, err := s.Store.Claim(owner, ttl)
	s.mu.Lock()
	if ok && !s.tripped {
		s.armed = true
	}
	s.mu.Unlock()
	return rec, ok, err
}

func (s *claimGetFailStore) Get(id spybox.JobID) (Record, bool, error) {
	s.mu.Lock()
	if s.armed && !s.tripped {
		s.armed, s.tripped = false, true
		s.mu.Unlock()
		return Record{}, false, errors.New("injected transient store failure")
	}
	s.mu.Unlock()
	return s.Store.Get(id)
}

// TestTransientGetFailureReleasesClaim pins the claim-leak fix: when
// the record cannot be read back right after Claim (a transient store
// error), the worker must Release the claim rather than abandon the
// job with the lease still held. With the Release the job returns to
// the queue and completes promptly; without it the job sits leased
// and unrun until the TTL expires — far beyond this test's deadline.
func TestTransientGetFailureReleasesClaim(t *testing.T) {
	t.Parallel()
	st := &claimGetFailStore{Store: memStore(t)}
	svc := newTestService(t, Options{
		Workers: 1,
		Store:   st,
		Poll:    20 * time.Millisecond,
		// Recovery must come from the Release, not lease expiry.
		LeaseTTL: time.Minute,
	})
	id, err := svc.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "injected Get failure to be served", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.tripped
	})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	status, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait after transient store failure: %v (claim was never released)", err)
	}
	if status.State != spybox.JobDone {
		t.Fatalf("job state = %v, want JobDone", status.State)
	}
}

// TestDeleteHonoursContext: Delete waiting for a running job to
// persist gives up when the context does; the job stays cancelled
// and a later unbounded Delete still removes the record.
func TestDeleteHonoursContext(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1})
	id, err := svc.Submit(spybox.JobSpec{Experiments: []string{"fig9"}, Scale: "default", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job to start", func() bool {
		st, err := svc.Job(id)
		return err == nil && st.State == spybox.JobRunning
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := svc.Delete(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded Delete: %v", err)
	}
	if err := svc.Delete(context.Background(), id); err != nil {
		t.Fatalf("unbounded Delete after bounded one: %v", err)
	}
	if _, err := svc.Job(id); !errors.Is(err, spybox.ErrNoJob) {
		t.Errorf("deleted job still known: %v", err)
	}
}

// TestDrainKeepsRunningStreamOpen: a Watch opened while Close drains a
// job still running here stays open until the run persists, and a Wait
// opened then returns the run's terminal state, never running. The
// stallStore holds the run's final ownership check, so the drain has
// begun but the terminal write has not happened while both are opened.
func TestDrainKeepsRunningStreamOpen(t *testing.T) {
	t.Parallel()
	st := &stallStore{Store: memStore(t), stall: make(chan struct{})}
	svc := newTestService(t, Options{Store: st, Workers: 1, LeaseTTL: time.Minute})
	var unstall sync.Once
	resume := func() { unstall.Do(func() { close(st.stall) }) }
	t.Cleanup(resume) // before the drain, should the test stop early
	id, err := svc.Submit(smallSpec("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	runningClaim(t, svc, id)
	closed := make(chan error, 1)
	go func() { closed <- svc.Close(context.Background()) }()
	<-svc.stop // the drain has begun

	events, unsub, err := svc.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	waited := make(chan spybox.JobStatus, 1)
	go func() {
		status, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Errorf("Wait during drain: %v", err)
		}
		waited <- status
	}()
	// Take what the run has published so far; the stream must not end.
	for drained := false; !drained; {
		select {
		case _, open := <-events:
			if !open {
				t.Fatal("Watch opened during the drain closed before the run persisted")
			}
		default:
			drained = true
		}
	}
	select {
	case status := <-waited:
		t.Fatalf("Wait returned %v before the run persisted", status.State)
	default:
	}

	resume()
	select {
	case status := <-waited:
		if s := status.State; s != spybox.JobCancelled && s != spybox.JobDone {
			t.Errorf("Wait during drain returned %v, want cancelled or done", s)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Wait hung through the drain")
	}
	for range events {
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// noClaimStore hands out no work, so every submission stays queued.
type noClaimStore struct{ Store }

func (noClaimStore) Claim(string, time.Duration) (Record, bool, error) {
	return Record{}, false, nil
}

// TestQueueDepth: Submit and SubmitBatch share one queue bound, and a
// batch that would overfill the queue is refused whole.
func TestQueueDepth(t *testing.T) {
	t.Parallel()
	st := noClaimStore{memStore(t)}
	svc := newTestService(t, Options{Store: st, Workers: 1, QueueDepth: 3})
	var ids []spybox.JobID
	for i := 0; i < 3; i++ {
		id, err := svc.Submit(smallSpec("fig4"))
		if err != nil {
			t.Fatalf("Submit %d of 3: %v", i+1, err)
		}
		ids = append(ids, id)
	}
	if _, err := svc.Submit(smallSpec("fig4")); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("Submit over QueueDepth: %v", err)
	}
	if err := svc.Cancel(ids[0]); err != nil {
		t.Fatal(err)
	}
	pair := BatchSpec{Experiments: []string{"fig4"}, Seeds: []uint64{1, 2}, Scales: []string{"small"}}
	if _, err := svc.SubmitBatch(pair); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("two-job batch onto two queued of three: %v", err)
	}
	if c, err := st.Counts(); err != nil || c.Total != 3 || c.Queued != 2 {
		t.Fatalf("refused batch left census %+v, %v; want 3 jobs, 2 queued", c, err)
	}
	pair.Seeds = pair.Seeds[:1]
	b, err := svc.SubmitBatch(pair)
	if err != nil {
		t.Fatalf("one-job batch filling the queue: %v", err)
	}
	if want := "batch-4"; b.ID != want || len(b.Jobs) != 1 || b.Jobs[0] != "job-4" {
		t.Errorf("batch %+v, want %s holding job-4", b, want)
	}
}
