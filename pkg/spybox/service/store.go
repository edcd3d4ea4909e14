// Job persistence: the Store interface and the jobTable state machine
// behind it. The implementation is LogStore (log.go): an append-only
// record log plus compaction snapshot that N serve processes can share
// through one directory, or, opened with no directory, the in-memory
// store for tests and throwaway servers.
//
// Stores are also the fleet's scheduler: a worker takes work by
// Claim-ing the next runnable job under a time-limited lease, renewing
// it while the job runs. A process that dies mid-job simply stops
// renewing, and once the lease expires any other process reclaims the
// job — that is the whole crash-recovery story, and it is why the
// claim/renew/release operations live in the store (the one component
// every process in a fleet shares) rather than in the service.

package service

import (
	"errors"
	"sort"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

// Lease records which worker currently owns a claimed job and until
// when. A lease is live while Expires is in the future; an expired
// lease means its owner died (or stalled past renewal) and the job is
// reclaimable.
type Lease struct {
	Owner   string    `json:"owner"`
	Expires time.Time `json:"expires"`
}

// live reports whether the lease is held at instant now.
func (l *Lease) live(now time.Time) bool {
	return l != nil && now.Before(l.Expires)
}

// Record is everything a store persists about one job: its status,
// the results completed so far (the full set once done, a prefix for
// failed or cancelled jobs), the model version that computed them,
// and — maintained by Claim/Renew/Release, never by Put — the lease
// of the worker running it.
type Record struct {
	Status spybox.JobStatus `json:"status"`
	// Lease is read-only to callers: Put ignores the field (claiming
	// is a separate, atomic operation) and clears any lease when the
	// record goes terminal.
	Lease   *Lease           `json:"lease,omitempty"`
	Results []*report.Result `json:"results,omitempty"`
	// Model is the spybox.ModelVersion that computed Results. Only a
	// done record with a model serves cache hits, and only to a build
	// of that model.
	Model string `json:"model,omitempty"`
}

// clone deep-copies a record so no caller can mutate store state
// through a returned value (or have the store capture a slice the
// caller still owns). Results go through report.Clone; the spec's
// experiment list and the lease are copied too.
func (r Record) clone() Record {
	out := r
	if r.Status.Spec.Experiments != nil {
		out.Status.Spec.Experiments = append([]string(nil), r.Status.Spec.Experiments...)
	}
	if r.Lease != nil {
		l := *r.Lease
		out.Lease = &l
	}
	if r.Results != nil {
		out.Results = make([]*report.Result, len(r.Results))
		for i, res := range r.Results {
			out.Results[i] = res.Clone()
		}
	}
	return out
}

// Counts is the by-state census of a store, cheap enough to call on
// every Submit (unlike List, which deep-copies every record).
type Counts struct {
	Total     int `json:"total"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Leased counts non-terminal records under a live lease.
	Leased int `json:"leased"`
	// Cached counts the distinct cache keys done records hold.
	Cached int `json:"cached"`
}

// ErrExists is returned by Create when the record's ID is already
// present — the caller must pick another ID, never overwrite.
var ErrExists = errors.New("service: job ID already exists")

// ErrNotOwner is returned by Renew and Release when the caller does
// not hold the job's lease (it expired and another worker claimed the
// job, or it was never claimed).
var ErrNotOwner = errors.New("service: lease not held by this owner")

// Store persists job records and schedules them across workers.
// Implementations must be safe for concurrent use; List returns
// records in submission order. Mutating a returned Record never
// changes stored state — reads are deep copies.
type Store interface {
	// Put inserts or replaces the record keyed by Status.ID. The
	// record's Lease field is ignored: an existing lease is kept,
	// except that a terminal record's lease is cleared (its run is
	// over).
	Put(rec Record) error
	// Create is Put that fails with ErrExists when the ID is already
	// present, so concurrent processes sharing a store never allocate
	// the same job ID.
	Create(rec Record) error
	// Get returns a deep copy of the record for id, reporting whether
	// it exists.
	Get(id spybox.JobID) (Record, bool, error)
	// List returns a deep copy of every record, in submission order.
	List() ([]Record, error)
	// Delete removes the record for id; deleting an absent id is a
	// no-op.
	Delete(id spybox.JobID) error
	// Counts reports the by-state census without copying records.
	Counts() (Counts, error)
	// Cached returns a deep copy of the result stored under key (a
	// cacheKey of the record's Model) by some done record, reporting
	// whether one exists.
	Cached(key string) (*report.Result, bool, error)
	// Claim atomically leases the next runnable job to owner for ttl
	// and returns it. Runnable means non-terminal with no live lease:
	// a queued job, or a running job whose worker stopped renewing
	// (crashed) — the caller re-runs the latter from scratch.
	// Candidates with the highest Spec.Priority go first; among the
	// tied groups they are picked round-robin across fairness groups
	// (Spec.Client, else Status.Batch, else the shared interactive
	// slot), oldest-first within a group, so one huge batch cannot
	// starve other submitters and an urgent job cannot wait out a
	// queued sweep. ok is false when nothing is runnable.
	Claim(owner string, ttl time.Duration) (rec Record, ok bool, err error)
	// Renew extends owner's lease on id by ttl from now. It fails
	// with ErrNotOwner when owner no longer holds the lease and with
	// spybox.ErrNoJob when the record is gone — either way the caller
	// has lost the job and must stop writing to it.
	Renew(id spybox.JobID, owner string, ttl time.Duration) error
	// Release clears owner's lease without touching the record's
	// state, returning a claimed-but-unstarted job to the queue (e.g.
	// on shutdown between Claim and the running transition).
	Release(id spybox.JobID, owner string) error
}

// jobTable is LogStore's in-memory state machine: records in
// submission order, the runnable set, the result index, and the
// round-robin fairness cursor. It does no locking, and it copies only
// in apply, which clones each record it stores; LogStore locks and
// deep-copies reads.
type jobTable struct {
	byID  map[spybox.JobID]*Record
	order []spybox.JobID
	// cached indexes done records' results by cache key. put and
	// delete keep it current, so every path that changes records (live
	// appends, peer replay, snapshot reload) maintains it; a key leaves
	// only with its last holder.
	cached map[string]*cachedResult
	// pending holds IDs that may be runnable (non-terminal), in
	// submission order, compacted lazily during claim scans so that
	// claiming stays O(live jobs) on a store full of finished ones.
	pending []spybox.JobID
	// cursor is the fairness group served last; the next claim starts
	// from the group after it in sorted cyclic order.
	cursor string
	counts Counts
}

// cachedResult is one cache key's entry: a result for the key and how
// many done records hold one. Every holder's result is byte-identical
// (results are a pure function of the key), so the entry keeps the
// first it saw for as long as any holder remains.
type cachedResult struct {
	res *report.Result
	n   int
}

func newJobTable() *jobTable {
	return &jobTable{byID: map[spybox.JobID]*Record{}, cached: map[string]*cachedResult{}}
}

// index adds (d = 1) or removes (d = -1) rec's results in the cache
// index: only done records with a model hold cacheable results, one
// per experiment of the spec.
func (t *jobTable) index(rec *Record, d int) {
	if rec.Status.State != spybox.JobDone || rec.Model == "" {
		return
	}
	spec := rec.Status.Spec
	for i := 0; i < min(len(rec.Results), len(spec.Experiments)); i++ {
		key := cacheKey(rec.Model, spec.Seed, spec.Scale, spec.Arch, spec.Experiments[i])
		e := t.cached[key]
		if e == nil {
			e = &cachedResult{res: rec.Results[i]}
			t.cached[key] = e
		}
		if e.n += d; e.n == 0 {
			delete(t.cached, key)
		}
	}
}

// countState adjusts the census for one record entering (+1) or
// leaving (-1) its state.
func (t *jobTable) countState(state spybox.JobState, d int) {
	switch state {
	case spybox.JobQueued:
		t.counts.Queued += d
	case spybox.JobRunning:
		t.counts.Running += d
	case spybox.JobDone:
		t.counts.Done += d
	case spybox.JobFailed:
		t.counts.Failed += d
	case spybox.JobCancelled:
		t.counts.Cancelled += d
	}
}

// put applies Put semantics: upsert, keep the stored lease (the Lease
// field of the argument is ignored), clear it on terminal records.
func (t *jobTable) put(rec Record) {
	id := rec.Status.ID
	prev, existed := t.byID[id]
	if existed {
		rec.Lease = prev.Lease
		t.countState(prev.Status.State, -1)
		t.index(prev, -1)
		if prev.Status.State.Terminal() && !rec.Status.State.Terminal() {
			// Resurrected: a lazy claim-scan compaction may have
			// dropped the ID from pending while it was terminal.
			inPending := false
			for _, p := range t.pending {
				if p == id {
					inPending = true
					break
				}
			}
			if !inPending {
				t.pending = append(t.pending, id)
			}
		}
	} else {
		t.order = append(t.order, id)
		t.counts.Total++
		if !rec.Status.State.Terminal() {
			t.pending = append(t.pending, id)
		}
		rec.Lease = nil
	}
	if rec.Status.State.Terminal() {
		rec.Lease = nil
	}
	t.countState(rec.Status.State, 1)
	t.byID[id] = &rec
	t.index(&rec, 1)
}

func (t *jobTable) delete(id spybox.JobID) {
	rec, ok := t.byID[id]
	if !ok {
		return
	}
	t.countState(rec.Status.State, -1)
	t.index(rec, -1)
	t.counts.Total--
	delete(t.byID, id)
	for i, o := range t.order {
		if o == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	// pending is compacted lazily on the next claim scan.
}

func (t *jobTable) get(id spybox.JobID) (*Record, bool) {
	rec, ok := t.byID[id]
	return rec, ok
}

func (t *jobTable) list() []Record {
	out := make([]Record, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, *t.byID[id])
	}
	return out
}

// leasedCount is O(pending): terminal records never hold leases.
func (t *jobTable) leasedCount(now time.Time) int {
	n := 0
	for _, id := range t.pending {
		if rec, ok := t.byID[id]; ok && !rec.Status.State.Terminal() && rec.Lease.live(now) {
			n++
		}
	}
	return n
}

// fairnessGroup buckets a record for round-robin claiming: explicit
// client first, then its batch, then the shared interactive slot.
func fairnessGroup(rec *Record) string {
	if rec.Status.Spec.Client != "" {
		return "client\x00" + rec.Status.Spec.Client
	}
	if rec.Status.Batch != "" {
		return "batch\x00" + rec.Status.Batch
	}
	return ""
}

// pickClaim chooses the next runnable job at instant now, compacting
// the pending set as it scans, without mutating any record. ok is
// false when nothing is runnable. Priority trumps fairness: only the
// groups whose best waiting job ties the highest priority enter the
// round-robin rotation, and within a group the oldest job at that
// priority is served (submission order breaks ties).
func (t *jobTable) pickClaim(now time.Time) (spybox.JobID, bool) {
	type candidate struct {
		id   spybox.JobID
		prio int
	}
	best := map[string]candidate{} // fairness group -> top-priority, oldest runnable
	var groups []string
	live := t.pending[:0]
	for _, id := range t.pending {
		rec, ok := t.byID[id]
		if !ok || rec.Status.State.Terminal() {
			continue // deleted or finished: drop from pending
		}
		live = append(live, id)
		if rec.Lease.live(now) {
			continue // another worker is on it
		}
		g := fairnessGroup(rec)
		prev, seen := best[g]
		if !seen {
			best[g] = candidate{id: id, prio: rec.Status.Spec.Priority}
			groups = append(groups, g)
		} else if rec.Status.Spec.Priority > prev.prio {
			// Strictly higher only: at equal priority the earlier
			// submission keeps the slot (oldest-first within a group).
			best[g] = candidate{id: id, prio: rec.Status.Spec.Priority}
		}
	}
	t.pending = live
	if len(groups) == 0 {
		return "", false
	}
	maxPrio := best[groups[0]].prio
	for _, g := range groups[1:] {
		if p := best[g].prio; p > maxPrio {
			maxPrio = p
		}
	}
	top := groups[:0]
	for _, g := range groups {
		if best[g].prio == maxPrio {
			top = append(top, g)
		}
	}
	// Serve the first tied group strictly after the cursor in sorted
	// cyclic order, so successive claims rotate across every waiting
	// group of the leading priority.
	sort.Strings(top)
	next := top[0]
	for _, g := range top {
		if g > t.cursor {
			next = g
			break
		}
	}
	t.cursor = next
	return best[next].id, true
}

// setLease stamps (or clears, with a nil lease) the lease on id.
func (t *jobTable) setLease(id spybox.JobID, lease *Lease) {
	if rec, ok := t.byID[id]; ok {
		rec.Lease = lease
	}
}
