package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

func rec(id string, state spybox.JobState) Record {
	return Record{Status: spybox.JobStatus{
		ID: spybox.JobID(id), State: state,
		Spec:  spybox.JobSpec{Experiments: []string{"fig4"}, Seed: 1, Scale: "small", Arch: "p100-dgx1"},
		Total: 1,
	}}
}

// memStore opens an in-memory store: a LogStore with no directory.
func memStore(t *testing.T) *LogStore {
	t.Helper()
	s, err := OpenLogStore("")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storeContract drives any Store through put/create/replace/list/
// delete/counts and the claim/renew/release lease cycle.
func storeContract(t *testing.T, s Store) {
	t.Helper()
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		if err := s.Put(rec(id, spybox.JobQueued)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Create(rec("job-1", spybox.JobQueued)); !errors.Is(err, ErrExists) {
		t.Errorf("Create over an existing ID: %v", err)
	}
	if err := s.Create(rec("job-4", spybox.JobQueued)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job-4"); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("job-2")
	if err != nil || !ok || got.Status.ID != "job-2" {
		t.Fatalf("Get(job-2) = %+v, %v, %v", got, ok, err)
	}
	if _, ok, _ := s.Get("job-9"); ok {
		t.Error("Get found an absent job")
	}
	// Replacement keeps the submission order.
	r := rec("job-1", spybox.JobDone)
	r.Results = []*report.Result{report.New("fig4", "t")}
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range list {
		ids = append(ids, string(r.Status.ID))
	}
	if strings.Join(ids, ",") != "job-1,job-2,job-3" {
		t.Fatalf("List order %v, want submission order", ids)
	}
	if list[0].Status.State != spybox.JobDone || len(list[0].Results) != 1 {
		t.Errorf("replaced record not returned: %+v", list[0])
	}
	c, err := s.Counts()
	if err != nil || c.Total != 3 || c.Queued != 2 || c.Done != 1 || c.Leased != 0 {
		t.Fatalf("Counts = %+v, %v", c, err)
	}

	// Claim leases the oldest runnable job; the lease blocks a second
	// claim of the same record but not of its peers.
	claimed, ok, err := s.Claim("w1", time.Minute)
	if err != nil || !ok || claimed.Status.ID != "job-2" {
		t.Fatalf("Claim = %+v, %v, %v (want job-2: job-1 is done)", claimed.Status, ok, err)
	}
	if claimed.Lease == nil || claimed.Lease.Owner != "w1" {
		t.Fatalf("claimed without a lease: %+v", claimed.Lease)
	}
	claimed2, ok, err := s.Claim("w2", time.Minute)
	if err != nil || !ok || claimed2.Status.ID != "job-3" {
		t.Fatalf("second Claim = %+v, %v, %v", claimed2.Status, ok, err)
	}
	if _, ok, _ := s.Claim("w3", time.Minute); ok {
		t.Error("third Claim found work with everything leased or terminal")
	}
	if c, _ := s.Counts(); c.Leased != 2 {
		t.Errorf("Leased = %d, want 2", c.Leased)
	}
	// Renew and Release enforce ownership.
	if err := s.Renew("job-2", "w2", time.Minute); !errors.Is(err, ErrNotOwner) {
		t.Errorf("foreign Renew: %v", err)
	}
	if err := s.Renew("job-2", "w1", time.Minute); err != nil {
		t.Errorf("owner Renew: %v", err)
	}
	if err := s.Renew("job-9", "w1", time.Minute); !errors.Is(err, spybox.ErrNoJob) {
		t.Errorf("Renew on absent job: %v", err)
	}
	if err := s.Release("job-3", "w1"); !errors.Is(err, ErrNotOwner) {
		t.Errorf("foreign Release: %v", err)
	}
	if err := s.Release("job-3", "w2"); err != nil {
		t.Fatal(err)
	}
	// Released work is immediately claimable again.
	reclaimed, ok, err := s.Claim("w3", time.Minute)
	if err != nil || !ok || reclaimed.Status.ID != "job-3" {
		t.Fatalf("reclaim after release = %+v, %v, %v", reclaimed.Status, ok, err)
	}
	// A terminal Put clears the lease; Put never otherwise touches it.
	running := claimed
	running.Status.State = spybox.JobRunning
	running.Lease = nil // callers cannot smuggle lease edits through Put
	if err := s.Put(running); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Get("job-2"); got.Lease == nil || got.Lease.Owner != "w1" {
		t.Errorf("Put dropped the lease: %+v", got.Lease)
	}
	done := running
	done.Status.State = spybox.JobDone
	if err := s.Put(done); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Get("job-2"); got.Lease != nil {
		t.Errorf("terminal Put kept the lease: %+v", got.Lease)
	}
	if err := s.Renew("job-2", "w1", time.Minute); !errors.Is(err, ErrNotOwner) {
		t.Errorf("Renew after terminal put: %v", err)
	}

	if err := s.Delete("job-2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job-2"); err != nil { // absent delete is a no-op
		t.Fatal(err)
	}
	if list, _ = s.List(); len(list) != 2 {
		t.Fatalf("after delete, %d records", len(list))
	}
}

func TestMemStore(t *testing.T) { storeContract(t, memStore(t)) }

func TestLogStore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLogStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storeContract(t, s)

	// Reopen: the log replays, including submission order and leases.
	s2, err := OpenLogStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	list, err := s2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Status.ID != "job-1" || list[1].Status.ID != "job-3" {
		t.Fatalf("reopened store holds %+v", list)
	}
	if list[0].Status.State != spybox.JobDone || len(list[0].Results) != 1 || list[0].Results[0].ID != "fig4" {
		t.Errorf("reopened record lost data: %+v", list[0])
	}
	if list[1].Lease == nil || list[1].Lease.Owner != "w3" {
		t.Errorf("reopened record lost its lease: %+v", list[1].Lease)
	}
}

// TestLogStoreClosed: a closed on-disk store refuses every operation
// rather than carrying on in memory; only a store opened with no
// directory is in-memory, and its Compact and Close do nothing.
func TestLogStoreClosed(t *testing.T) {
	s, err := OpenLogStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec("job-1", spybox.JobQueued)); err == nil || !strings.Contains(err.Error(), "is closed") {
		t.Errorf("Put on a closed store: %v", err)
	}
	if _, err := s.List(); err == nil || !strings.Contains(err.Error(), "is closed") {
		t.Errorf("List on a closed store: %v", err)
	}

	mem := memStore(t)
	if err := mem.Put(rec("job-1", spybox.JobQueued)); err != nil {
		t.Fatal(err)
	}
	if err := mem.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if list, err := mem.List(); err != nil || len(list) != 1 {
		t.Errorf("in-memory store after Compact and Close: %d records, %v", len(list), err)
	}
}

// TestLogStoreMutationIsolation pins the deep-copy read path: mutating
// a Record returned by Get or List, or a result returned by Cached,
// must never change stored state.
// (The old FileStore returned aliased Results slices, so a caller
// appending to them corrupted the store in memory.)
func TestStoreMutationIsolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store { return memStore(t) }},
		{"log", func(t *testing.T) Store {
			s, err := OpenLogStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			r := rec("job-1", spybox.JobDone)
			res := report.New("fig4", "t")
			res.SetMetric("m", "cycles", 1)
			res.Artifacts = map[string][]byte{"bits": {1, 2, 3}}
			r.Results = []*report.Result{res}
			r.Model = spybox.ModelVersion
			if err := s.Put(r); err != nil {
				t.Fatal(err)
			}
			// The caller's own slices must not be captured either.
			res.SetMetric("m", "cycles", 999)
			r.Status.Spec.Experiments[0] = "tampered"

			got, _, err := s.Get("job-1")
			if err != nil {
				t.Fatal(err)
			}
			if got.Results[0].Metrics["m"] != 1 || got.Status.Spec.Experiments[0] != "fig4" {
				t.Fatalf("store captured caller-owned memory: %+v", got)
			}
			// Mutate everything reachable from the returned record.
			got.Results[0].SetMetric("m", "cycles", 777)
			got.Results[0].Artifacts["bits"][0] = 9
			got.Results = append(got.Results[:0], nil)
			got.Status.Spec.Experiments[0] = "clobbered"

			again, _, err := s.Get("job-1")
			if err != nil {
				t.Fatal(err)
			}
			if again.Results[0].Metrics["m"] != 1 {
				t.Error("metric mutated through a returned record")
			}
			if again.Results[0].Artifacts["bits"][0] != 1 {
				t.Error("artifact bytes mutated through a returned record")
			}
			if again.Status.Spec.Experiments[0] != "fig4" {
				t.Error("spec mutated through a returned record")
			}
			list, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			list[0].Results[0].SetMetric("m", "cycles", 555)
			if final, _, _ := s.Get("job-1"); final.Results[0].Metrics["m"] != 1 {
				t.Error("metric mutated through List")
			}
			key := CacheKey(1, "small", "p100-dgx1", "fig4")
			hit, ok, err := s.Cached(key)
			if err != nil || !ok {
				t.Fatalf("Cached: %v, %v", ok, err)
			}
			hit.SetMetric("m", "cycles", 333)
			hit.Artifacts["bits"][0] = 7
			if again, _, _ := s.Cached(key); again.Metrics["m"] != 1 || again.Artifacts["bits"][0] != 1 {
				t.Error("cached result mutated through a returned copy")
			}
		})
	}
}

// TestLogStoreTornFinalRecord simulates a crash mid-append: replay
// keeps every whole record, truncates the torn tail, and the store
// keeps working.
func TestLogStoreTornFinalRecord(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		// Half a frame header.
		"short-header": func(b []byte) []byte { return append(b, 0, 0) },
		// A plausible header whose payload never made it.
		"short-payload": func(b []byte) []byte {
			return append(b, 0, 0, 1, 0, 0xde, 0xad, 0xbe, 0xef, 'x')
		},
		// A whole frame whose payload bits rotted (CRC mismatch).
		"crc-mismatch": func(b []byte) []byte {
			fr := frame([]byte(`{"op":"delete","id":"job-1"}`))
			fr[9] ^= 0xff
			return append(b, fr...)
		},
		// A garbage length prefix.
		"garbage-length": func(b []byte) []byte {
			var hdr [8]byte
			binary.BigEndian.PutUint32(hdr[:4], 1<<30)
			return append(b, hdr[:]...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenLogStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(rec("job-1", spybox.JobQueued)); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(rec("job-2", spybox.JobQueued)); err != nil {
				t.Fatal(err)
			}
			s.Close()
			logPath := filepath.Join(dir, "log")
			b, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(logPath, mangle(b), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := OpenLogStore(dir)
			if err != nil {
				t.Fatalf("torn log refused: %v", err)
			}
			defer s2.Close()
			if s2.TornRecords() != 1 {
				t.Errorf("TornRecords = %d, want 1", s2.TornRecords())
			}
			list, err := s2.List()
			if err != nil || len(list) != 2 {
				t.Fatalf("whole records lost: %d, %v", len(list), err)
			}
			// The truncated store accepts appends again and they stick.
			if err := s2.Put(rec("job-3", spybox.JobQueued)); err != nil {
				t.Fatal(err)
			}
			s3, err := OpenLogStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if s3.TornRecords() != 0 {
				t.Errorf("reopen after truncation still torn: %d", s3.TornRecords())
			}
			if list, _ := s3.List(); len(list) != 3 {
				t.Errorf("post-truncation append lost: %d records", len(list))
			}
		})
	}
}

// TestLogStoreCompaction drives the log over its threshold and checks
// the snapshot+reset round-trip, including a reopen.
func TestLogStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLogStore(dir, WithCompactBytes(1)) // every append compacts
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		if err := s.Put(rec(id, spybox.JobQueued)); err != nil {
			t.Fatal(err)
		}
	}
	done := rec("job-1", spybox.JobDone)
	done.Results = []*report.Result{report.New("fig4", "t")}
	if err := s.Put(done); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	list, err := s.List()
	if err != nil || len(list) != 2 {
		t.Fatalf("compacted store lists %d records, %v", len(list), err)
	}
	s.Close()
	s2, err := OpenLogStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	list, err = s2.List()
	if err != nil || len(list) != 2 || list[0].Status.ID != "job-1" || list[1].Status.ID != "job-3" {
		t.Fatalf("reopened compacted store: %+v, %v", list, err)
	}
	if list[0].Status.State != spybox.JobDone || len(list[0].Results) != 1 {
		t.Errorf("compaction lost results: %+v", list[0])
	}
}

// TestLogStoreHealsInterruptedCompaction simulates a crash between the
// snapshot rename and the log reset: the new snapshot sits beside the
// previous generation's log. The reopen must serve exactly the
// pre-crash state from the snapshot — the stale log, even a frame of it
// no reader could parse, is already folded in — and complete the reset.
func TestLogStoreHealsInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLogStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		if err := s.Put(rec(id, spybox.JobQueued)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.Claim("w1", time.Hour); err != nil || !ok {
		t.Fatalf("claim: %v %v", ok, err)
	}
	if err := s.Delete("job-2"); err != nil {
		t.Fatal(err)
	}
	before, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "log")
	staleLog, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The crash: the generation-0 log was never reset, and its tail
	// holds a CRC-valid frame that is not a log record.
	staleLog = append(staleLog, frame([]byte("not json"))...)
	if err := os.WriteFile(logPath, staleLog, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenLogStore(dir)
	if err != nil {
		t.Fatalf("interrupted compaction not healed: %v", err)
	}
	after, err := s2.List()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(before)
	got, _ := json.Marshal(after)
	if string(got) != string(want) {
		t.Fatalf("healed store holds\n%s\nwant the pre-crash\n%s", got, want)
	}
	if after[0].Lease == nil || after[0].Lease.Owner != "w1" {
		t.Errorf("healed store lost the lease: %+v", after[0].Lease)
	}
	// The healed log takes appends that survive the next reopen.
	if err := s2.Put(rec("job-4", spybox.JobQueued)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenLogStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	list, err := s3.List()
	s3.Close()
	if err != nil || len(list) != 3 || list[2].Status.ID != "job-4" {
		t.Fatalf("post-heal append lost: %+v, %v", list, err)
	}

	// The reset completed under the snapshot's generation, so the log
	// no longer stands on its own.
	if err := os.Remove(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLogStore(dir); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Errorf("log of a compacted generation opened without its snapshot: %v", err)
	}
}

// TestLogStoreSchemaRefusal: foreign layouts are refused, not misread.
func TestLogStoreSchemaRefusal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "log"),
		frame([]byte(`{"schema":"spybox.joblog/v999","gen":0}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLogStore(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("foreign log schema opened: %v", err)
	}
	// The old single-file JSON store is refused with a pointer, not
	// silently shadowed by a fresh directory.
	file := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(file, []byte(`{"schema":"spybox.jobs/v1","jobs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLogStore(file); err == nil || !strings.Contains(err.Error(), "directory") {
		t.Errorf("file-path store opened: %v", err)
	}
}

// TestLeaseExpiryReclaim: an owner that stops renewing loses the job
// to the next claimer; its stale Renew/Release then fail.
func TestLeaseExpiryReclaim(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store {
			s := memStore(t)
			s.now = clock
			return s
		}},
		{"log", func(t *testing.T) Store {
			s, err := OpenLogStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			s.now = clock
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now = time.Unix(1000, 0)
			s := tc.open(t)
			if err := s.Put(rec("job-1", spybox.JobQueued)); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := s.Claim("dead", 10*time.Second); err != nil || !ok {
				t.Fatalf("claim: %v %v", ok, err)
			}
			// Mark it running, as the dead worker would have.
			r, _, _ := s.Get("job-1")
			r.Status.State = spybox.JobRunning
			if err := s.Put(r); err != nil {
				t.Fatal(err)
			}
			// While the lease is live, nobody else gets the job.
			if _, ok, _ := s.Claim("w2", 10*time.Second); ok {
				t.Fatal("leased job reclaimed early")
			}
			// After expiry, the job — still marked running — is handed
			// to the next claimer for a from-scratch re-run.
			now = now.Add(11 * time.Second)
			got, ok, err := s.Claim("w2", 10*time.Second)
			if err != nil || !ok || got.Status.ID != "job-1" {
				t.Fatalf("expired lease not reclaimed: %+v %v %v", got.Status, ok, err)
			}
			if got.Lease.Owner != "w2" {
				t.Errorf("lease owner after reclaim: %+v", got.Lease)
			}
			// The dead owner's writes are refused.
			if err := s.Renew("job-1", "dead", 10*time.Second); !errors.Is(err, ErrNotOwner) {
				t.Errorf("stale Renew: %v", err)
			}
			if err := s.Release("job-1", "dead"); !errors.Is(err, ErrNotOwner) {
				t.Errorf("stale Release: %v", err)
			}
		})
	}
}

// TestClaimFairness: claims rotate round-robin across fairness groups
// (client, batch, interactive) so one bulk submitter cannot starve
// the rest.
func TestClaimFairness(t *testing.T) {
	s := memStore(t)
	put := func(id, client, batch string) {
		r := rec(id, spybox.JobQueued)
		r.Status.Spec.Client = client
		r.Status.Batch = batch
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	// A big batch submitted first, then an interactive job, then one
	// from a named client.
	for i := 1; i <= 6; i++ {
		put("job-"+string(rune('0'+i)), "", "batch-1")
	}
	put("job-7", "", "")      // interactive
	put("job-8", "alice", "") // named client
	var order []string
	for {
		got, ok, err := s.Claim("w", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		g := got.Status.Spec.Client
		if g == "" {
			g = got.Status.Batch
		}
		if g == "" {
			g = "interactive"
		}
		order = append(order, g)
	}
	if len(order) != 8 {
		t.Fatalf("claimed %d jobs, want 8", len(order))
	}
	// The three groups alternate while all have work: the interactive
	// job and alice's job must both land within the first three claims
	// even though six batch jobs were submitted ahead of them.
	head := strings.Join(order[:3], ",")
	if !strings.Contains(head, "interactive") || !strings.Contains(head, "alice") {
		t.Errorf("head-of-line blocking: first claims were %v", order)
	}
	// Once only the batch remains, its jobs drain back-to-back.
	tail := order[3:]
	for _, g := range tail {
		if g != "batch-1" {
			t.Errorf("unexpected tail group %q in %v", g, order)
		}
	}
}

// TestClaimPriority: a high-priority interactive job submitted after
// a queued sweep is claimed first, ahead of the fairness rotation;
// equal priorities keep submission order within a group; and once the
// urgent work drains, the bulk tier resumes round-robin.
func TestClaimPriority(t *testing.T) {
	s := memStore(t)
	put := func(id, batch string, prio int) {
		r := rec(id, spybox.JobQueued)
		r.Status.Batch = batch
		r.Status.Spec.Priority = prio
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	// A whole sweep lands first, then an urgent interactive job, then
	// a second interactive job at the same urgency.
	for i := 1; i <= 4; i++ {
		put("job-"+string(rune('0'+i)), "batch-1", 0)
	}
	put("job-5", "", 5) // interactive, urgent
	put("job-6", "", 5) // interactive, equally urgent, later

	var order []spybox.JobID
	for {
		got, ok, err := s.Claim("w", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		order = append(order, got.Status.ID)
	}
	if len(order) != 6 {
		t.Fatalf("claimed %d jobs, want 6", len(order))
	}
	// The urgent jobs overtake the entire queued sweep, oldest first.
	if order[0] != "job-5" || order[1] != "job-6" {
		t.Errorf("priority jobs did not overtake the sweep: claim order %v", order)
	}
	for _, id := range order[2:] {
		if got := s.tbl.byID[id].Status.Batch; got != "batch-1" {
			t.Errorf("unexpected job %s (group %q) in the bulk tail of %v", id, got, order)
		}
	}
}
