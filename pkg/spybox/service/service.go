// Package service is the job-oriented layer above pkg/spybox: a
// durable job store that doubles as a content-addressed result cache,
// a bounded worker pool that opens a Session for each job it runs, and
// an HTTP server/client pair speaking the /v1 jobs API.
//
// Both halves implement spybox.JobService:
//
//	svc, _ := service.New(service.Options{})        // in-process
//	cli := service.NewClient("http://host:8080")    // over HTTP
//
// Submit validates a JobSpec entirely up front, persists it, and a
// worker runs its experiments one at a time — answering each from the
// store when a done job already holds an identical (seed, scale, arch,
// experiment) computed under this schema and model version, which
// determinism makes byte-identical to a fresh run. Those hits are
// shared by every process on one store and survive restarts; deleting
// a job's record removes its entries. Cancellation stops a running
// job at the next trial boundary and persists the results completed
// so far; Close drains the pool the same way, and a LogStore brings
// still-queued jobs back after a restart.
//
// Workers do not share an in-memory queue: they Claim jobs from the
// store under time-limited leases (see Store). That makes the store
// the only coordination point, so any number of services — across
// processes — can share one LogStore directory and drain one queue as
// a fleet, each job running exactly once while its owner keeps
// renewing, and reclaimed by a peer if the owner dies.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

// Default claim-loop tuning; Options overrides both.
const (
	DefaultLeaseTTL = 10 * time.Second
	DefaultPoll     = 250 * time.Millisecond
)

// Options parameterize New.
type Options struct {
	// Store persists jobs; nil means a fresh in-memory store,
	// OpenLogStore(""). Jobs left non-terminal by a previous process
	// are not touched at startup — they are simply claimable
	// (immediately if unleased, after lease expiry if their owner died
	// mid-run) and re-run from scratch; determinism makes the re-run
	// identical.
	Store Store
	// Workers bounds how many jobs run concurrently; <= 0 means 2.
	// Each job's trial-level parallelism is its own Spec.Parallel.
	Workers int
	// QueueDepth bounds how many jobs may wait; <= 0 means 256.
	// Submit fails when the queue is full rather than blocking.
	QueueDepth int
	// Owner names this process in the store's lease table; empty means
	// "<hostname>-<pid>". Owners sharing a store must be distinct.
	Owner string
	// LeaseTTL is how long a claimed job stays this process's before a
	// peer may reclaim it; leases are renewed every LeaseTTL/3 while
	// the job runs. <= 0 means DefaultLeaseTTL. Shorter means faster
	// takeover after a crash but less tolerance for stalls.
	LeaseTTL time.Duration
	// Poll is how often idle workers re-check the store for jobs
	// submitted by peer processes, and waiters re-check for jobs
	// finished by them. <= 0 means DefaultPoll. Purely local activity
	// never waits on it.
	Poll time.Duration
	// BatchLimit caps how many jobs one SubmitBatch sweep may expand
	// to; <= 0 means DefaultBatchLimit.
	BatchLimit int
}

// Service is the in-process JobService implementation.
type Service struct {
	store      Store
	workers    int
	queueDepth int
	owner      string
	leaseTTL   time.Duration
	poll       time.Duration
	batchLimit int

	hits, misses atomic.Int64 // experiments answered from the store / simulated

	mu     sync.Mutex
	rt     map[spybox.JobID]*claim                         // jobs running in this process
	subs   map[spybox.JobID]map[chan spybox.Event]struct{} // Watch streams
	change chan struct{}                                   // closed+replaced on every local state change
	seq    int
	closed bool

	wake chan struct{} // nudges an idle worker after Submit
	stop chan struct{}
	wg   sync.WaitGroup
}

var _ spybox.JobService = (*Service)(nil)

// New builds a service over the given store and starts its worker
// pool. Jobs already in the store are left as-is: workers claim the
// runnable ones (queued, or running under an expired lease) the same
// way they claim fresh submissions.
func New(opts Options) (*Service, error) {
	if opts.Store == nil {
		mem, err := OpenLogStore("")
		if err != nil {
			return nil, err
		}
		opts.Store = mem
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.Owner == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "spybox"
		}
		opts.Owner = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.Poll <= 0 {
		opts.Poll = DefaultPoll
	}
	if opts.BatchLimit <= 0 {
		opts.BatchLimit = DefaultBatchLimit
	}
	s := &Service{
		store:      opts.Store,
		workers:    opts.Workers,
		queueDepth: opts.QueueDepth,
		owner:      opts.Owner,
		leaseTTL:   opts.LeaseTTL,
		poll:       opts.Poll,
		batchLimit: opts.BatchLimit,
		rt:         map[spybox.JobID]*claim{},
		subs:       map[spybox.JobID]map[chan spybox.Event]struct{}{},
		change:     make(chan struct{}),
		wake:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}
	recs, err := s.store.List()
	if err != nil {
		return nil, fmt.Errorf("service: loading job store: %w", err)
	}
	for _, rec := range recs {
		// Track the highest previously assigned sequence number so
		// restarted services never reuse an ID. (Create still guards
		// against a peer racing past us: ErrExists just bumps seq.)
		if n, ok := strings.CutPrefix(string(rec.Status.ID), "job-"); ok {
			if v, err := strconv.Atoi(n); err == nil && v > s.seq {
				s.seq = v
			}
		}
	}
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.observer()
	return s, nil
}

// notifyChangeLocked wakes every Wait by closing the change channel
// and installing a fresh one. Callers hold s.mu.
func (s *Service) notifyChangeLocked() {
	close(s.change)
	s.change = make(chan struct{})
}

// normalize validates a spec up front and canonicalizes it: every
// experiment ID resolved (one error lists them all, with the valid
// names), the scale parsed and respelled, the seed defaulted, and the
// arch replaced by its resolved profile name so equivalent specs share
// cache entries. Nothing runs on a bad spec.
func normalize(spec spybox.JobSpec) (spybox.JobSpec, error) {
	ids, err := spybox.ExpandIDs(spec.Experiments...)
	if err != nil {
		return spybox.JobSpec{}, err
	}
	spec.Experiments = ids
	sess, err := open(spec, nil)
	if err != nil {
		return spybox.JobSpec{}, err
	}
	cfg := sess.Config()
	spec.Seed, spec.Scale, spec.Arch = cfg.Seed, cfg.Scale.String(), sess.Profile().Name
	return spec, nil
}

// open opens the Session a spec runs on, delivering its progress
// events to events. A Session is only a validated Config plus its
// resolved profile, so every job opens its own.
func open(spec spybox.JobSpec, events func(spybox.Event)) (*spybox.Session, error) {
	scale, err := spybox.ParseScale(spec.Scale)
	if err != nil {
		return nil, err
	}
	return spybox.Open(spybox.Config{
		Seed: spec.Seed, Scale: scale, Arch: spec.Arch, Parallel: spec.Parallel,
		Events: events,
	})
}

// Submit implements spybox.JobService: validate, persist as queued
// (Create, so an ID collision with a peer process retries with the
// next sequence number instead of overwriting), nudge a worker.
func (s *Service) Submit(spec spybox.JobSpec) (spybox.JobID, error) {
	norm, err := normalize(spec)
	if err != nil {
		return "", err
	}
	status := spybox.JobStatus{Spec: norm, State: spybox.JobQueued, Total: len(norm.Experiments)}
	return s.submitStatus(status)
}

// submitStatus persists a pre-normalized queued status under a fresh
// ID; SubmitBatch shares it to stamp Batch on expanded jobs.
func (s *Service) submitStatus(status spybox.JobStatus) (spybox.JobID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", spybox.ErrClosed
	}
	counts, err := s.store.Counts()
	if err != nil {
		return "", fmt.Errorf("service: checking queue depth: %w", err)
	}
	if counts.Queued >= s.queueDepth {
		return "", fmt.Errorf("service: queue full (%d jobs pending)", counts.Queued)
	}
	for {
		s.seq++
		status.ID = spybox.JobID(fmt.Sprintf("job-%d", s.seq))
		err := s.store.Create(Record{Status: status})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrExists) {
			s.seq--
			return "", fmt.Errorf("service: persisting job: %w", err)
		}
		// A peer sharing the store took this ID; try the next one.
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return status.ID, nil
}

// Job implements spybox.JobService.
func (s *Service) Job(id spybox.JobID) (spybox.JobStatus, error) {
	rec, ok, err := s.store.Get(id)
	if err != nil {
		return spybox.JobStatus{}, err
	}
	if !ok {
		return spybox.JobStatus{}, fmt.Errorf("%w: %s", spybox.ErrNoJob, id)
	}
	return rec.Status, nil
}

// Jobs returns every job's status, in submission order.
func (s *Service) Jobs() ([]spybox.JobStatus, error) {
	recs, err := s.store.List()
	if err != nil {
		return nil, err
	}
	out := make([]spybox.JobStatus, len(recs))
	for i, rec := range recs {
		out[i] = rec.Status
	}
	return out, nil
}

// Wait implements spybox.JobService. Local completions wake it
// immediately through the change broadcast; jobs finished by a peer
// process are noticed within one poll interval.
func (s *Service) Wait(ctx context.Context, id spybox.JobID) (spybox.JobStatus, error) {
	if ctx == nil {
		//spylint:allow ctxflow documented nil-ctx default: a nil ctx means wait forever, per the JobService contract
		ctx = context.Background()
	}
	for {
		s.mu.Lock()
		ch := s.change
		closed := s.closed
		running := s.rt[id] != nil
		s.mu.Unlock()
		status, err := s.Job(id)
		if err != nil || status.State.Terminal() {
			return status, err
		}
		if closed && !running {
			// Drained: nothing in this process will finish the job. It
			// survives (still queued) in a durable store for the next
			// start; report where it stands.
			return status, nil
		}
		timer := time.NewTimer(s.poll)
		select {
		case <-ch: // local state change: re-check immediately
		case <-timer.C: // a peer may have finished it
		case <-ctx.Done():
			timer.Stop()
			return status, ctx.Err()
		}
		timer.Stop()
	}
}

// Cancel implements spybox.JobService: queued jobs go terminal
// immediately and never start; jobs running in this process have
// their context cancelled, so the worker stops at the next trial
// boundary and persists the results completed so far; jobs running in
// a peer process are marked cancelled in the store — the peer's next
// lease renewal fails and it abandons the run (its partial results are
// lost; they lived only in its memory). Terminal jobs are left
// untouched.
func (s *Service) Cancel(id spybox.JobID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cancelLocked(id)
}

func (s *Service) cancelLocked(id spybox.JobID) error {
	rec, ok, err := s.store.Get(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", spybox.ErrNoJob, id)
	}
	if rec.Status.State.Terminal() {
		return nil
	}
	if c := s.rt[id]; c != nil {
		// Running here: the run's context stops it, and the worker
		// persists partials and finishes.
		c.cancel(nil)
		return nil
	}
	// Queued, or running in a peer process. Terminal Put clears any
	// lease; a peer mid-run loses its lease and stands down without
	// writing (see claim.finish).
	if rec.Status.State == spybox.JobRunning || rec.Lease.live(time.Now()) {
		rec.Status.Error = "cancelled while running elsewhere"
	} else {
		rec.Status.Error = "cancelled before start"
	}
	rec.Status.State = spybox.JobCancelled
	if err := s.store.Put(rec); err != nil {
		return err
	}
	s.closeSubsLocked(id)
	s.notifyChangeLocked()
	return nil
}

// Delete cancels the job if it is still live and removes its record.
// A job running in this process must finish persisting its partial
// results before the record can be removed out from under it; ctx
// bounds that wait (nil means wait indefinitely). The job stays
// cancelled either way — on ctx expiry only the record removal is
// abandoned.
func (s *Service) Delete(ctx context.Context, id spybox.JobID) error {
	if ctx == nil {
		//spylint:allow ctxflow documented nil-ctx default: wait for the run to persist, as before the ctx parameter existed
		ctx = context.Background()
	}
	s.mu.Lock()
	if err := s.cancelLocked(id); err != nil {
		s.mu.Unlock()
		return err
	}
	c := s.rt[id]
	s.mu.Unlock()
	if c != nil {
		select {
		case <-c.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.mu.Lock()
	s.closeSubsLocked(id)
	s.notifyChangeLocked()
	s.mu.Unlock()
	return s.store.Delete(id)
}

// Result implements spybox.JobService.
func (s *Service) Result(id spybox.JobID) ([]*report.Result, error) {
	rec, ok, err := s.store.Get(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", spybox.ErrNoJob, id)
	}
	if !rec.Status.State.Terminal() {
		return nil, fmt.Errorf("service: job %s is %s; results come after it finishes (Wait first)",
			id, rec.Status.State)
	}
	return rec.Results, nil
}

// Watch subscribes to a job's progress events. The channel closes
// when the job reaches a terminal state (immediately, for already
// terminal jobs); a slow receiver drops events rather than stalling
// the simulation. Only the process running the job sees its events,
// so a stream opened on a peer's job carries nothing and simply
// closes when the job finishes. The returned func unsubscribes.
func (s *Service) Watch(id spybox.JobID) (<-chan spybox.Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok, err := s.store.Get(id)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", spybox.ErrNoJob, id)
	}
	ch := make(chan spybox.Event, 64)
	if rec.Status.State.Terminal() || s.closed {
		close(ch)
		return ch, func() {}, nil
	}
	if s.subs[id] == nil {
		s.subs[id] = map[chan spybox.Event]struct{}{}
	}
	s.subs[id][ch] = struct{}{}
	unsub := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if set, ok := s.subs[id]; ok {
			if _, live := set[ch]; live {
				delete(set, ch)
				close(ch)
				if len(set) == 0 {
					delete(s.subs, id)
				}
			}
		}
	}
	return ch, unsub, nil
}

// publish fans a session event out to the job's subscribers. It is
// the Events callback of every job's session, so ev.Job identifies
// the run.
func (s *Service) publish(ev spybox.Event) {
	if ev.Job == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch := range s.subs[ev.Job] {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, never stall the simulation
		}
	}
}

// closeSubsLocked ends every Watch stream for id. Callers hold s.mu.
func (s *Service) closeSubsLocked(id spybox.JobID) {
	for ch := range s.subs[id] {
		close(ch)
	}
	delete(s.subs, id)
}

// worker claims and runs jobs until Close. An idle worker sleeps
// until a local Submit nudges it or the poll interval elapses (a peer
// process may have submitted into the shared store).
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if c, ok := s.claimNext(); ok {
			s.runJob(c)
			continue // drain: look for more before sleeping
		}
		timer := time.NewTimer(s.poll)
		select {
		case <-s.stop:
			timer.Stop()
			return
		case <-s.wake:
		case <-timer.C:
		}
		timer.Stop()
	}
}

// observer closes Watch streams for jobs that a peer process finished
// (locally run jobs close theirs as the run ends, immediately).
// It only touches the store while streams are open.
func (s *Service) observer() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.poll)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.mu.Lock()
			for id := range s.subs {
				if s.rt[id] != nil {
					continue // running here: runJob will close it
				}
				rec, ok, err := s.store.Get(id)
				if err != nil {
					continue
				}
				if !ok || rec.Status.State.Terminal() {
					s.closeSubsLocked(id)
					s.notifyChangeLocked()
				}
			}
			s.mu.Unlock()
		}
	}
}

// runJob executes one claimed job: each experiment answered from the
// store's done records when possible, simulated on the job's own
// session otherwise, with the record updated after every experiment so
// observers (and the store) always hold the latest progress. Every
// path ends the claim through release or finish, which own the lease.
func (s *Service) runJob(c *claim) {
	id := c.id
	s.mu.Lock()
	select {
	case <-s.stop:
		// Draining: return the claim so the job stays queued for a
		// peer or the next start.
		s.mu.Unlock()
		c.release()
		return
	default:
	}
	rec, ok, err := s.store.Get(id)
	if err != nil || !ok || rec.Status.State.Terminal() {
		// A transient read error, or the job was deleted or cancelled
		// between claim and here: give the claim back rather than squat
		// on the lease until the TTL expires.
		s.mu.Unlock()
		c.release()
		return
	}
	s.rt[id] = c
	rec.Status.State = spybox.JobRunning
	rec.Status.Done = 0
	rec.Status.CacheHits = 0
	rec.Status.Error = ""
	putErr := s.store.Put(rec)
	s.mu.Unlock()

	spec := rec.Status.Spec
	var results []*report.Result
	cacheHits := 0
	runErr := putErr
	if runErr == nil {
		var sess *spybox.Session
		sess, runErr = open(spec, s.publish)
		for i, exptID := range spec.Experiments {
			if runErr != nil {
				break
			}
			if c.ctx.Err() != nil {
				runErr = &spybox.InterruptedError{
					Completed: len(results), Total: len(spec.Experiments), Cause: c.ctx.Err(),
				}
				break
			}
			// A failed lookup is only a miss: the experiment is
			// simulated instead.
			if r, ok, err := s.store.Cached(CacheKey(spec.Seed, spec.Scale, spec.Arch, exptID)); err == nil && ok {
				s.hits.Add(1)
				cacheHits++
				results = append(results, r)
				s.publishCached(id, exptID)
			} else {
				s.misses.Add(1)
				var rs []*report.Result
				rs, runErr = sess.RunJob(c.ctx, id, exptID)
				results = append(results, rs...)
				if runErr != nil {
					break
				}
			}
			// Progress checkpoint. No s.mu: while the job is running,
			// this goroutine is the record's only writer (cancellation
			// routes through the claim's context, Delete blocks on
			// c.done, and stores serialize internally). Results stay in
			// memory until the terminal write — a restart re-runs
			// non-terminal jobs from scratch anyway, so persisting
			// partials per experiment would only bloat the job log with
			// every completed payload. The last experiment needs no
			// checkpoint: the terminal write follows at once, and the
			// store write saved pays for finish's ownership check.
			if i < len(spec.Experiments)-1 && !c.progress(len(results), cacheHits) {
				break
			}
		}
	}

	rec.Status.Done = len(results)
	rec.Status.CacheHits = cacheHits
	rec.Results = results
	rec.Model = spybox.ModelVersion
	var interrupted *spybox.InterruptedError
	switch {
	case runErr == nil:
		rec.Status.State = spybox.JobDone
	case errors.As(runErr, &interrupted):
		rec.Status.State = spybox.JobCancelled
		rec.Status.Error = runErr.Error()
	default:
		rec.Status.State = spybox.JobFailed
		rec.Status.Error = runErr.Error()
	}
	// Close out the run whether or not the job is still ours: Delete
	// stops blocking, every subscriber stream ends, waiters wake, and
	// the rt entry goes so a long-lived server keeps none per job run.
	c.finish(rec, func() {
		delete(s.rt, id)
		s.closeSubsLocked(id)
		s.notifyChangeLocked()
	})
}

// publishCached emits the experiment start/done pair for a cache hit,
// so SSE consumers see the same shape of stream whether an experiment
// was simulated or served from cache.
func (s *Service) publishCached(id spybox.JobID, exptID string) {
	title := ""
	if info, ok := spybox.LookupExperiment(exptID); ok {
		title = info.Title
	}
	s.publish(spybox.Event{Kind: spybox.ExperimentStart, Job: id, Experiment: exptID, Title: title, Trial: -1})
	s.publish(spybox.Event{Kind: spybox.ExperimentDone, Job: id, Experiment: exptID, Title: title, Trial: -1})
}

// Close drains the service: Submit starts refusing, jobs running here
// are cancelled (stopping at their next trial boundary, persisting
// the results completed so far), queued jobs stay queued in the store
// — for the next start, or for peer processes still draining the same
// store. Close returns when every worker has finished persisting, or
// with the context's error if that takes longer.
func (s *Service) Close(ctx context.Context) error {
	if ctx == nil {
		//spylint:allow ctxflow documented nil-ctx default: a nil ctx means drain without a deadline
		ctx = context.Background()
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
		for _, c := range s.rt {
			c.cancel(nil) // the worker persists partials, then finishes the run
		}
		// End Watch streams on jobs this process isn't running —
		// nothing here will ever feed them — and wake every Wait so it
		// can observe the drain.
		for id := range s.subs {
			if s.rt[id] == nil {
				s.closeSubsLocked(id)
			}
		}
		s.notifyChangeLocked()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain incomplete: %w", ctx.Err())
	}
}

// Stats is an operational snapshot of the service.
type Stats struct {
	Jobs      int `json:"jobs"` // records in the store
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Leased counts non-terminal jobs under a live lease, across every
	// process sharing the store.
	Leased      int    `json:"leased"`
	Workers     int    `json:"workers"`
	Owner       string `json:"owner"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	CacheSize   int    `json:"cache_entries"`
}

// Stats counts jobs by state and reports the cache counters: this
// process's hits and misses, and the distinct results cached in the
// store. Counts come from the store's census, not a full List, so
// Stats stays cheap on a store full of finished jobs.
func (s *Service) Stats() (Stats, error) {
	c, err := s.store.Counts()
	if err != nil {
		return Stats{}, err
	}
	st := Stats{
		Jobs: c.Total, Queued: c.Queued, Running: c.Running,
		Done: c.Done, Failed: c.Failed, Cancelled: c.Cancelled,
		Leased: c.Leased, Workers: s.workers, Owner: s.owner,
		CacheHits: s.hits.Load(), CacheMisses: s.misses.Load(), CacheSize: c.Cached,
	}
	return st, nil
}

// Experiments exposes the registry metadata (spybox.Experiments) so
// the HTTP layer and clients discover experiments through the same
// index, sorted stably by registry (paper) order.
func (s *Service) Experiments() []spybox.ExperimentInfo {
	return spybox.Experiments()
}
