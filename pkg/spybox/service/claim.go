package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"spybox/pkg/spybox"
)

// claim is this process's hold on one job, from a successful
// Store.Claim to one of two exits: release hands the job back
// unstarted, finish ends a run. Meanwhile a goroutine renews the lease
// every ttl/3; a failed renewal marks it lost and cancels ctx, so the
// run stops at its next trial boundary. Nothing else in the service
// calls Renew or Release.
type claim struct {
	store Store
	id    spybox.JobID
	owner string
	ttl   time.Duration
	mu    *sync.Mutex // the service's; finish writes the terminal record under it

	ctx       context.Context
	cancel    context.CancelCauseFunc // by Cancel, Close, or a failed renewal
	stopRenew chan struct{}
	renewDone chan struct{}
	lost      atomic.Bool
}

// claimNext leases the next runnable job to this process and starts
// renewing the lease. ok is false when nothing is runnable or the
// store failed.
func (s *Service) claimNext() (c *claim, ok bool) {
	rec, ok, err := s.store.Claim(s.owner, s.leaseTTL)
	if err != nil || !ok {
		return nil, false
	}
	c = &claim{
		store: s.store, id: rec.Status.ID, owner: s.owner, ttl: s.leaseTTL, mu: &s.mu,
		stopRenew: make(chan struct{}), renewDone: make(chan struct{}),
	}
	//spylint:allow ctxflow the job outlives the submitting request; cancellation routes through Cancel/Delete and lease loss, not a caller ctx
	c.ctx, c.cancel = context.WithCancelCause(context.Background())
	go c.renew()
	return c, true
}

func (c *claim) renew() {
	defer close(c.renewDone)
	ticker := time.NewTicker(c.ttl / 3)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopRenew:
			return
		case <-ticker.C:
			if err := c.store.Renew(c.id, c.owner, c.ttl); err != nil {
				c.lost.Store(true)
				c.cancel(err)
				return
			}
		}
	}
}

func (c *claim) halt() {
	close(c.stopRenew)
	<-c.renewDone
	c.cancel(nil)
}

// release returns the lease, so the job is claimable again at once. A
// deleted or terminal record holds no lease, and the refusal is moot.
func (c *claim) release() {
	c.halt()
	_ = c.store.Release(c.id, c.owner)
}

// progress persists how far the run has got, and reports false,
// writing nothing, once the lease is lost.
func (c *claim) progress(done, cacheHits int) bool {
	if c.lost.Load() {
		return false
	}
	if cur, ok, _ := c.store.Get(c.id); ok {
		cur.Status.Done = done
		cur.Status.CacheHits = cacheHits
		_ = c.store.Put(cur)
	}
	return true
}

// finish ends a run. Under mu it writes rec, the job's terminal
// record, only if the job is still this process's, then runs closeOut
// either way, telling it whether the write happened. The job is not
// this process's after a failed renewal, nor when a final Renew finds
// the lease gone: the process stalled past the TTL and a peer
// reclaimed the job before the next tick, or a peer cancelled or
// deleted it. The record is then the new owner's. Stopping renewal and
// the final Renew both may wait on a store write, so they run before
// mu is taken.
func (c *claim) finish(rec Record, closeOut func(written bool)) {
	c.halt()
	owned := !c.lost.Load()
	if owned {
		err := c.store.Renew(c.id, c.owner, c.ttl)
		owned = !errors.Is(err, ErrNotOwner) && !errors.Is(err, spybox.ErrNoJob)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	closeOut(owned && c.store.Put(rec) == nil)
}
