// Fleet and batch behavior: several Service instances (as several
// processes would) sharing one LogStore directory, lease reclaim of a
// crashed owner's job, and server-side sweep expansion with fairness.

package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spybox/pkg/spybox"
)

// claimCounter counts successful claims through a Store, so a test
// can assert exactly-once scheduling: with no crashes, total claims
// across a fleet must equal total jobs.
type claimCounter struct {
	Store
	n atomic.Int64
}

func (c *claimCounter) Claim(owner string, ttl time.Duration) (Record, bool, error) {
	rec, ok, err := c.Store.Claim(owner, ttl)
	if ok {
		c.n.Add(1)
	}
	return rec, ok, err
}

// fleetOptions are fast-reacting settings for multi-service tests.
func fleetOptions(store Store, owner string) Options {
	return Options{
		Store: store, Owner: owner, Workers: 2,
		Poll: 20 * time.Millisecond, LeaseTTL: time.Minute,
	}
}

// TestFleetSharedStoreExactlyOnce is the fleet acceptance test in one
// process: two Services, each with its own LogStore handle on one
// directory, drain one queue — every job claimed exactly once, and
// both sides read identical result bytes back from the shared store.
func TestFleetSharedStoreExactlyOnce(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	open := func() *claimCounter {
		s, err := OpenLogStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return &claimCounter{Store: s}
	}
	storeA, storeB := open(), open()
	svcA := newTestService(t, fleetOptions(storeA, "A"))
	svcB := newTestService(t, fleetOptions(storeB, "B"))

	// Submissions through A become visible to B's workers via the log,
	// and vice versa.
	var ids []spybox.JobID
	for i := 0; i < 3; i++ {
		spec := smallSpec("fig4")
		spec.Seed = uint64(200 + i)
		id, err := svcA.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// B allocated no IDs yet, so its first Submit races A's job-1..3
	// and must skip to the next free sequence number, not overwrite.
	specB := smallSpec("fig4")
	specB.Seed = 300
	idB, err := svcB.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	if idB != "job-4" {
		t.Errorf("cross-process ID allocation gave %s, want job-4", idB)
	}
	ids = append(ids, idB)

	// Either side can wait on any job, whoever ran it.
	for _, id := range ids {
		st, err := svcB.Wait(context.Background(), id)
		if err != nil || st.State != spybox.JobDone || st.Done != 1 {
			t.Fatalf("fleet job %s: %+v, %v", id, st, err)
		}
	}
	if total := storeA.n.Load() + storeB.n.Load(); total != int64(len(ids)) {
		t.Errorf("%d claims for %d jobs — not exactly once", total, len(ids))
	}
	// Results read back identically through both handles.
	for _, id := range ids {
		ra, err := svcA.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := svcB.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, ra), encode(t, rb)) {
			t.Errorf("job %s reads differently through the two stores", id)
		}
	}
}

// TestFleetReclaimsCrashedOwner: a job claimed and marked running by a
// worker that died (no renewals) is reclaimed after its lease expires
// and re-run from scratch by a live service.
func TestFleetReclaimsCrashedOwner(t *testing.T) {
	t.Parallel()
	store, err := OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Put(rec("job-1", spybox.JobQueued)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Claim("dead", 50*time.Millisecond); err != nil || !ok {
		t.Fatalf("seed claim: %v %v", ok, err)
	}
	r, _, _ := store.Get("job-1")
	r.Status.State = spybox.JobRunning
	r.Status.Done = 0
	if err := store.Put(r); err != nil {
		t.Fatal(err)
	}

	svc := newTestService(t, fleetOptions(store, "alive"))
	st, err := svc.Wait(context.Background(), "job-1")
	if err != nil || st.State != spybox.JobDone || st.Done != 1 {
		t.Fatalf("reclaimed job: %+v, %v", st, err)
	}
	if results, err := svc.Result("job-1"); err != nil || len(results) != 1 {
		t.Fatalf("reclaimed job results: %d, %v", len(results), err)
	}
}

// TestSubmitBatchExpandsAndStaysFair: a sweep expands into stamped
// jobs, the batch census tracks them, and with one worker an
// interactive job overtakes the still-queued bulk of the batch.
func TestSubmitBatchExpandsAndStaysFair(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1})
	seeds := []uint64{401, 402, 403}
	st, err := svc.SubmitBatch(BatchSpec{
		Experiments: []string{"fig9"}, Seeds: seeds, Scales: []string{"small"}, Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != len(seeds) || len(st.Jobs) != len(seeds) || st.Queued != len(seeds) {
		t.Fatalf("batch expansion: %+v", st)
	}
	if st.ID == "" || !strings.HasPrefix(st.ID, "batch-") {
		t.Fatalf("batch ID %q", st.ID)
	}
	for _, id := range st.Jobs {
		js, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if js.Batch != st.ID {
			t.Errorf("job %s carries batch %q, want %q", id, js.Batch, st.ID)
		}
		if len(js.Spec.Experiments) != 1 || js.Spec.Experiments[0] != "fig9" || js.Spec.Scale != "small" {
			t.Errorf("job %s spec not expanded: %+v", id, js.Spec)
		}
	}

	// An interactive job submitted behind the batch: round-robin must
	// run it before the batch drains (fig9 jobs are slow, fig4 fast).
	inter, err := svc.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	is, err := svc.Wait(context.Background(), inter)
	if err != nil || is.State != spybox.JobDone {
		t.Fatalf("interactive job: %+v, %v", is, err)
	}
	mid, err := svc.Batch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Done == mid.Total {
		t.Error("interactive job only ran after the whole batch drained")
	}

	waitUntil(t, "batch terminal", func() bool {
		b, err := svc.Batch(st.ID)
		return err == nil && b.Terminal()
	})
	final, err := svc.Batch(st.ID)
	if err != nil || final.Done != final.Total || final.Failed != 0 {
		t.Fatalf("final batch census: %+v, %v", final, err)
	}
	if _, err := svc.Batch("batch-999"); !errors.Is(err, ErrNoBatch) {
		t.Errorf("unknown batch: %v", err)
	}
}

// TestSubmitBatchValidation: a bad sweep submits nothing, and the
// expansion limit is enforced before any job is created.
func TestSubmitBatchValidation(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1, BatchLimit: 4})
	cases := []BatchSpec{
		{Experiments: []string{"bogus"}},
		{Experiments: []string{"fig4"}, Scales: []string{"huge"}},
		{Experiments: []string{"fig4"}, Seeds: []uint64{1, 2, 3, 4, 5}}, // over BatchLimit
	}
	for _, spec := range cases {
		if _, err := svc.SubmitBatch(spec); err == nil {
			t.Errorf("SubmitBatch(%+v) accepted", spec)
		}
	}
	if jobs, _ := svc.Jobs(); len(jobs) != 0 {
		t.Errorf("invalid batches left %d jobs", len(jobs))
	}
}

// TestHTTPBatch drives the sweep endpoints over the wire: submit,
// census, wait, and the 404/400 edges.
func TestHTTPBatch(t *testing.T) {
	t.Parallel()
	_, cli := newTestServer(t, Options{Workers: 2})
	st, err := cli.SubmitBatch(BatchSpec{
		Experiments: []string{"fig4"}, Seeds: []uint64{501, 502}, Scales: []string{"small"}, Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 2 || len(st.Jobs) != 2 {
		t.Fatalf("batch over HTTP: %+v", st)
	}
	final, err := cli.WaitBatch(context.Background(), st.ID)
	if err != nil || final.Done != 2 {
		t.Fatalf("WaitBatch: %+v, %v", final, err)
	}
	// Every member is a plain job too, with results.
	for _, id := range final.Jobs {
		results, err := cli.Result(id)
		if err != nil || len(results) != 1 {
			t.Fatalf("batch member %s results: %d, %v", id, len(results), err)
		}
	}
	if _, err := cli.Batch("batch-999"); err == nil || !strings.Contains(err.Error(), "no such batch") {
		t.Errorf("unknown batch over HTTP: %v", err)
	}
	if _, err := cli.SubmitBatch(BatchSpec{Experiments: []string{"bogus"}}); err == nil {
		t.Error("bad batch accepted over HTTP")
	}
}

// TestCachedSharedAcrossFleetAndRestart: a result one Service computed
// is a cache hit for a peer on the same store directory, and for a
// Service started after compaction and a full restart — the store's
// done records are the cache, and every hit is byte-identical.
func TestCachedSharedAcrossFleetAndRestart(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	open := func() *LogStore {
		s, err := OpenLogStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(svc *Service, wantHits int) []byte {
		t.Helper()
		id, err := svc.Submit(smallSpec("fig4"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := svc.Wait(context.Background(), id)
		if err != nil || st.State != spybox.JobDone || st.CacheHits != wantHits {
			t.Fatalf("job %s: %+v, %v; want done with %d cache hits", id, st, err, wantHits)
		}
		results, err := svc.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, results)
	}
	drain := func(svc *Service) {
		t.Helper()
		if err := svc.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	storeA, storeB := open(), open()
	svcA, err := New(fleetOptions(storeA, "A"))
	if err != nil {
		t.Fatal(err)
	}
	svcB, err := New(fleetOptions(storeB, "B"))
	if err != nil {
		t.Fatal(err)
	}
	docA := run(svcA, 0)
	if docB := run(svcB, 1); !bytes.Equal(docB, docA) {
		t.Error("peer's cache hit differs from the computed result")
	}
	// Either process's worker may have run either job.
	if hits, misses := svcA.hits.Load()+svcB.hits.Load(), svcA.misses.Load()+svcB.misses.Load(); hits != 1 || misses != 1 {
		t.Errorf("fleet counters: %d hits, %d misses; want 1, 1", hits, misses)
	}
	if st, err := svcB.Stats(); err != nil || st.CacheSize != 1 {
		t.Errorf("peer Stats = %+v, %v", st, err)
	}
	if err := storeA.Compact(); err != nil {
		t.Fatal(err)
	}
	drain(svcA)
	drain(svcB)
	for _, s := range []*LogStore{storeA, storeB} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	storeC := open()
	defer storeC.Close()
	svcC := newTestService(t, fleetOptions(storeC, "C"))
	if docC := run(svcC, 1); !bytes.Equal(docC, docA) {
		t.Error("cache hit after restart differs from the computed result")
	}
}
