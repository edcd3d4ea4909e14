// Lease lifetime: every exit of a claim leaves the store consistent —
// a drained claim goes back to the queue, and a worker whose lease is
// gone never writes the job's terminal record.

package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spybox/pkg/spybox"
)

// runningClaim waits for id to start running in svc and returns the
// claim it runs under.
func runningClaim(t *testing.T, svc *Service, id spybox.JobID) *claim {
	t.Helper()
	var c *claim
	waitUntil(t, "job to start running", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		c = svc.rt[id]
		return c != nil
	})
	return c
}

// waitRunOver waits until svc is done with id: its terminal write (or
// the decision to skip it) has happened.
func waitRunOver(t *testing.T, svc *Service, id spybox.JobID) {
	t.Helper()
	waitUntil(t, "run to end", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.rt[id] == nil
	})
}

// stallStore holds every Renew until stall is closed: the worker
// stalls just before it checks it still owns the job.
type stallStore struct {
	Store
	stall chan struct{}
}

func (s *stallStore) Renew(id spybox.JobID, owner string, ttl time.Duration) error {
	<-s.stall
	return s.Store.Renew(id, owner, ttl)
}

// TestStalledOwnerYieldsToPeer: a worker that stalls past its lease
// TTL, and whose run ends before a renewal tick notices, must not
// overwrite the record of the peer that reclaimed the job. The TTL is
// a minute, so no tick fires; only the store's clock moves, and the
// worker's ownership check waits until the peer holds the job.
func TestStalledOwnerYieldsToPeer(t *testing.T) {
	t.Parallel()
	var skew atomic.Int64
	mem := memStore(t)
	mem.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
	st := &stallStore{Store: mem, stall: make(chan struct{})}
	svc := newTestService(t, Options{
		Store: st, Owner: "A", Workers: 1,
		Poll: 20 * time.Millisecond, LeaseTTL: time.Minute,
	})
	var unstall sync.Once
	resume := func() { unstall.Do(func() { close(st.stall) }) }
	t.Cleanup(resume) // before the drain, should the test stop early
	id, err := svc.Submit(smallSpec("fig10"))
	if err != nil {
		t.Fatal(err)
	}
	runningClaim(t, svc, id)
	skew.Store(int64(2 * time.Minute)) // A has stalled past its lease
	if rec, ok, err := mem.Claim("B", time.Minute); err != nil || !ok || rec.Status.ID != id {
		t.Fatalf("peer reclaim = %v, %v, %v; want %s", rec.Status.ID, ok, err, id)
	}
	resume()
	waitRunOver(t, svc, id)
	rec, ok, err := mem.Get(id)
	if err != nil || !ok {
		t.Fatalf("Get: %v, %v", ok, err)
	}
	if rec.Status.State != spybox.JobRunning {
		t.Errorf("state = %v, want %v: the stalled owner wrote a terminal record over the peer's run",
			rec.Status.State, spybox.JobRunning)
	}
	if rec.Lease == nil || rec.Lease.Owner != "B" {
		t.Errorf("lease = %+v, want the peer's", rec.Lease)
	}
}

// lostLeaseStore fails the first Renew with ErrNotOwner, as if a peer
// had taken the job, and from then on refuses further claims (the peer
// holds the job). It counts terminal Puts. The job starts running only
// once that renewal has begun, and the renewal fails only once the
// test has seen the run, so the lease is lost mid-run.
type lostLeaseStore struct {
	Store
	renewing chan struct{} // closed by the first Renew
	observed chan struct{} // closed by the test
	mu       sync.Mutex
	claimed  bool
	renewed  bool
	terminal int
}

func (s *lostLeaseStore) Claim(owner string, ttl time.Duration) (Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.claimed {
		return Record{}, false, nil
	}
	rec, ok, err := s.Store.Claim(owner, ttl)
	s.claimed = ok
	return rec, ok, err
}

func (s *lostLeaseStore) Renew(id spybox.JobID, owner string, ttl time.Duration) error {
	s.mu.Lock()
	first := !s.renewed
	s.renewed = true
	s.mu.Unlock()
	if !first {
		return s.Store.Renew(id, owner, ttl)
	}
	close(s.renewing)
	<-s.observed
	return fmt.Errorf("%w: %s on %s", ErrNotOwner, owner, id)
}

func (s *lostLeaseStore) Put(rec Record) error {
	switch {
	case rec.Status.State == spybox.JobRunning:
		<-s.renewing
	case rec.Status.State.Terminal():
		s.mu.Lock()
		s.terminal++
		s.mu.Unlock()
	}
	return s.Store.Put(rec)
}

// TestLostLeaseStandsDown: a renewal that fails mid-run cancels the
// job's context, and the worker stands down without a terminal Put.
func TestLostLeaseStandsDown(t *testing.T) {
	t.Parallel()
	st := &lostLeaseStore{Store: memStore(t), renewing: make(chan struct{}), observed: make(chan struct{})}
	svc := newTestService(t, Options{
		Store: st, Workers: 1,
		// Renewal ticks every 10ms.
		Poll: 20 * time.Millisecond, LeaseTTL: 30 * time.Millisecond,
	})
	var observe sync.Once
	seen := func() { observe.Do(func() { close(st.observed) }) }
	t.Cleanup(seen) // before the drain, should the test stop early
	id, err := svc.Submit(smallSpec("fig10"))
	if err != nil {
		t.Fatal(err)
	}
	c := runningClaim(t, svc, id)
	seen()
	waitRunOver(t, svc, id)
	if cause := context.Cause(c.ctx); !errors.Is(cause, ErrNotOwner) {
		t.Errorf("run context cause = %v, want the failed renewal (%v)", cause, ErrNotOwner)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.terminal != 0 {
		t.Errorf("%d terminal Puts after the lease was lost, want 0", st.terminal)
	}
}

// closeOnClaimStore starts svc.Close inside the first successful
// Claim, so the claiming worker finds the service draining before it
// can start the job.
type closeOnClaimStore struct {
	Store
	svc    *Service // set before the first Submit
	once   sync.Once
	closed chan struct{} // closed when Close has returned
}

func (s *closeOnClaimStore) Claim(owner string, ttl time.Duration) (Record, bool, error) {
	rec, ok, err := s.Store.Claim(owner, ttl)
	if ok {
		s.once.Do(func() {
			go func() {
				_ = s.svc.Close(context.Background())
				close(s.closed)
			}()
			<-s.svc.stop // the drain has begun
		})
	}
	return rec, ok, err
}

// TestDrainReleasesClaim: a job claimed as the service starts draining
// goes straight back to the queue, unleased, so a peer can take it at
// once rather than after the TTL.
func TestDrainReleasesClaim(t *testing.T) {
	t.Parallel()
	st := &closeOnClaimStore{Store: memStore(t), closed: make(chan struct{})}
	svc := newTestService(t, Options{
		Store: st, Workers: 1,
		Poll: 20 * time.Millisecond, LeaseTTL: time.Minute,
	})
	st.svc = svc
	id, err := svc.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-st.closed:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the drain")
	}
	rec, ok, err := st.Get(id)
	if err != nil || !ok {
		t.Fatalf("Get: %v, %v", ok, err)
	}
	if rec.Lease != nil || rec.Status.State != spybox.JobQueued {
		t.Fatalf("after drain: lease %+v, state %v; want no lease, %v", rec.Lease, rec.Status.State, spybox.JobQueued)
	}
	if rec, ok, err := st.Store.Claim("B", time.Minute); err != nil || !ok || rec.Status.ID != id {
		t.Errorf("peer claim after drain = %v, %v, %v; want %s at once", rec.Status.ID, ok, err, id)
	}
}
