package service

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"spybox/internal/xrand"
	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

func TestCacheKeyDiscriminates(t *testing.T) {
	base := CacheKey(1, "small", "p100-dgx1", "fig4")
	for name, other := range map[string]string{
		"seed":       CacheKey(2, "small", "p100-dgx1", "fig4"),
		"scale":      CacheKey(1, "paper", "p100-dgx1", "fig4"),
		"arch":       CacheKey(1, "small", "v100-dgx2", "fig4"),
		"experiment": CacheKey(1, "small", "p100-dgx1", "fig9"),
		"model":      cacheKey(spybox.ModelVersion+"-other", 1, "small", "p100-dgx1", "fig4"),
	} {
		if other == base {
			t.Errorf("key ignores %s", name)
		}
	}
	if CacheKey(1, "small", "p100-dgx1", "fig4") != base {
		t.Error("key is not stable")
	}
}

// cacheUniverse is the small space of specs and models the
// differential test draws from, so that keys collide often.
var (
	cacheSeeds  = []uint64{1, 2}
	cacheExpts  = [][]string{{"fig4"}, {"fig9"}, {"fig4", "fig9"}}
	cacheModels = []string{spybox.ModelVersion, spybox.ModelVersion, "", "sim/1"}
	cacheStates = []spybox.JobState{spybox.JobQueued, spybox.JobRunning, spybox.JobDone, spybox.JobDone, spybox.JobFailed, spybox.JobCancelled}
)

// cacheResult is what a simulator of model computes for one key: a
// pure function of them, as determinism makes every real result.
func cacheResult(model string, seed uint64, expt string) *report.Result {
	r := report.New(expt, "t")
	r.SetMetric("seed", "", float64(seed))
	r.Notef("model %s", model)
	return r
}

// cacheRecord builds a record for id holding the first n results of
// its spec, computed under model.
func cacheRecord(id string, state spybox.JobState, model string, seed uint64, expts []string, n int) Record {
	r := Record{Model: model, Status: spybox.JobStatus{
		ID: spybox.JobID(id), State: state, Total: len(expts),
		Spec: spybox.JobSpec{Experiments: expts, Seed: seed, Scale: "small", Arch: "p100-dgx1"},
	}}
	for _, e := range expts[:n] {
		r.Results = append(r.Results, cacheResult(model, seed, e))
	}
	return r
}

// naiveCached is the reference for Store.Cached: a linear scan, in
// submission order, for a done record of this build's model whose spec
// gives key and that holds the result.
func naiveCached(recs []Record, key string) (*report.Result, bool) {
	for _, r := range recs {
		if r.Status.State != spybox.JobDone || r.Model != spybox.ModelVersion {
			continue
		}
		sp := r.Status.Spec
		for i, e := range sp.Experiments {
			if i < len(r.Results) && CacheKey(sp.Seed, sp.Scale, sp.Arch, e) == key {
				return r.Results[i], true
			}
		}
	}
	return nil, false
}

// naiveCachedCount is the reference for Counts.Cached: the distinct
// keys, under any model, of results that done records hold.
func naiveCachedCount(recs []Record) int {
	keys := map[string]bool{}
	for _, r := range recs {
		if r.Status.State != spybox.JobDone || r.Model == "" {
			continue
		}
		sp := r.Status.Spec
		for i := 0; i < len(r.Results) && i < len(sp.Experiments); i++ {
			keys[cacheKey(r.Model, sp.Seed, sp.Scale, sp.Arch, sp.Experiments[i])] = true
		}
	}
	return len(keys)
}

// TestCachedMatchesNaiveScan is a differential test of the store's
// result index: after every step of a random sequence of Put, Create,
// Delete, Claim, Compact and reopen, on the in-memory and the on-disk
// store, Cached must agree for every key with naiveCached over List,
// and Counts.Cached with naiveCachedCount.
func TestCachedMatchesNaiveScan(t *testing.T) {
	var keys []string
	for _, seed := range cacheSeeds {
		for _, e := range []string{"fig4", "fig9"} {
			keys = append(keys, CacheKey(seed, "small", "p100-dgx1", e))
		}
	}
	for _, mode := range []string{"mem", "log"} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				dir := ""
				if mode == "log" {
					dir = t.TempDir()
				}
				s, err := OpenLogStore(dir, WithCompactBytes(4<<10))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })

				step := 0
				check := func(what string) {
					t.Helper()
					step++
					recs, err := s.List()
					if err != nil {
						t.Fatal(err)
					}
					for _, key := range keys {
						got, ok, err := s.Cached(key)
						if err != nil {
							t.Fatal(err)
						}
						want, wantOK := naiveCached(recs, key)
						if ok != wantOK {
							t.Fatalf("step %d (%s): Cached(%s) hit=%v, reference %v", step, what, key[:8], ok, wantOK)
						}
						if ok && !bytes.Equal(encode(t, []*report.Result{got}), encode(t, []*report.Result{want})) {
							t.Fatalf("step %d (%s): Cached(%s) serves a different result", step, what, key[:8])
						}
					}
					c, err := s.Counts()
					if err != nil {
						t.Fatal(err)
					}
					if want := naiveCachedCount(recs); c.Cached != want {
						t.Fatalf("step %d (%s): Counts.Cached = %d, reference %d", step, what, c.Cached, want)
					}
				}
				put := func(r Record) {
					t.Helper()
					if err := s.Put(r); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("put %s %s model %q", r.Status.ID, r.Status.State, r.Model))
				}

				// Fixed prelude: two done duplicates, one deleted; records
				// of no model and another model; cancelled and failed
				// records carrying every result of their spec.
				put(cacheRecord("job-1", spybox.JobDone, spybox.ModelVersion, 1, []string{"fig4"}, 1))
				put(cacheRecord("job-2", spybox.JobDone, spybox.ModelVersion, 1, []string{"fig4", "fig9"}, 2))
				if err := s.Delete("job-1"); err != nil {
					t.Fatal(err)
				}
				check("delete a duplicate")
				put(cacheRecord("job-3", spybox.JobDone, "", 2, []string{"fig4"}, 1))
				put(cacheRecord("job-4", spybox.JobDone, "sim/1", 2, []string{"fig9"}, 1))
				put(cacheRecord("job-5", spybox.JobCancelled, spybox.ModelVersion, 2, []string{"fig4", "fig9"}, 2))
				put(cacheRecord("job-6", spybox.JobFailed, spybox.ModelVersion, 2, []string{"fig4"}, 1))

				r := xrand.New(seed)
				for i := 0; i < 120; i++ {
					id := fmt.Sprintf("job-%d", 1+r.Intn(8))
					switch op := r.Intn(10); {
					case op < 5:
						state := cacheStates[r.Intn(len(cacheStates))]
						expts := cacheExpts[r.Intn(len(cacheExpts))]
						n := 0
						if state.Terminal() {
							n = r.Intn(len(expts) + 1)
							if state == spybox.JobDone {
								n = len(expts)
							}
						}
						rec := cacheRecord(id, state, cacheModels[r.Intn(len(cacheModels))],
							cacheSeeds[r.Intn(len(cacheSeeds))], expts, n)
						if op < 3 {
							put(rec)
							continue
						}
						if err := s.Create(rec); err != nil && !errors.Is(err, ErrExists) {
							t.Fatal(err)
						}
						check("create " + id)
					case op < 7:
						if err := s.Delete(spybox.JobID(id)); err != nil {
							t.Fatal(err)
						}
						check("delete " + id)
					case op < 8:
						if _, _, err := s.Claim("w", time.Minute); err != nil {
							t.Fatal(err)
						}
						check("claim")
					case op < 9:
						if err := s.Compact(); err != nil {
							t.Fatal(err)
						}
						check("compact")
					default:
						if dir == "" {
							continue // nothing to reopen
						}
						if err := s.Close(); err != nil {
							t.Fatal(err)
						}
						if s, err = OpenLogStore(dir, WithCompactBytes(4<<10)); err != nil {
							t.Fatal(err)
						}
						check("reopen")
					}
				}
			})
		}
	}
}
