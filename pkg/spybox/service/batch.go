// Batch submission: one sweep spec — experiments × scales × seeds —
// expanded server-side into one job per combination, all stamped with
// a shared batch ID. Expanding on the server keeps sweeps atomic-ish
// (one request, one validation pass, contiguous IDs) and lets a fleet
// drain the pieces in parallel; the batch ID is the fairness group, so
// a thousand-job sweep round-robins against interactive submitters
// instead of starving them.

package service

import (
	"errors"
	"fmt"

	"spybox/pkg/spybox"
)

// DefaultBatchLimit caps how many jobs one batch may expand to when
// Options.BatchLimit is unset.
const DefaultBatchLimit = 1024

// ErrNoBatch is returned by Batch for an ID no job carries.
var ErrNoBatch = errors.New("service: no such batch")

// BatchSpec is one sweep request: the cross product of experiments,
// scales, and seeds becomes one job per (experiment, scale, seed)
// combination, every job sharing Arch, Parallel, and Client. Zero
// values default like JobSpec's: all experiments, the default scale,
// the default seed.
type BatchSpec struct {
	Experiments []string `json:"experiments,omitempty"`
	Scales      []string `json:"scales,omitempty"`
	Seeds       []uint64 `json:"seeds,omitempty"`
	Arch        string   `json:"arch,omitempty"`
	Parallel    int      `json:"parallel,omitempty"`
	// Client overrides the batch ID as the fairness group, letting one
	// submitter's many batches share a single round-robin slot.
	Client string `json:"client,omitempty"`
	// Priority stamps every expanded job; see JobSpec.Priority.
	Priority int `json:"priority,omitempty"`
}

// BatchStatus aggregates a batch's jobs: the member IDs in submission
// order and the by-state census. Done==Total means the sweep is fully
// drained.
type BatchStatus struct {
	ID   string         `json:"id"`
	Jobs []spybox.JobID `json:"jobs"`
	census
}

// Terminal reports whether every job in the batch has finished.
func (b BatchStatus) Terminal() bool {
	return b.Total > 0 && b.Done+b.Failed+b.Cancelled == b.Total
}

// expandBatch validates the sweep and returns one normalized JobSpec
// per combination. Validation is all-up-front like Submit's: a bad
// scale or experiment anywhere in the sweep submits nothing.
func expandBatch(spec BatchSpec, limit int) ([]spybox.JobSpec, error) {
	ids, err := spybox.ExpandIDs(spec.Experiments...)
	if err != nil {
		return nil, err
	}
	scales := spec.Scales
	if len(scales) == 0 {
		scales = []string{""}
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	n := len(ids) * len(scales) * len(seeds)
	if n == 0 {
		return nil, errors.New("service: batch expands to zero jobs")
	}
	if n > limit {
		return nil, fmt.Errorf("service: batch expands to %d jobs, over the limit of %d", n, limit)
	}
	specs := make([]spybox.JobSpec, 0, n)
	for _, scale := range scales {
		for _, seed := range seeds {
			for _, id := range ids {
				norm, err := normalize(spybox.JobSpec{
					Experiments: []string{id},
					Seed:        seed,
					Scale:       scale,
					Arch:        spec.Arch,
					Parallel:    spec.Parallel,
					Client:      spec.Client,
					Priority:    spec.Priority,
				})
				if err != nil {
					return nil, err
				}
				specs = append(specs, norm)
			}
		}
	}
	return specs, nil
}

// SubmitBatch validates and expands the sweep, persists every job
// (queued, stamped with the shared batch ID; see enqueue), and returns
// the batch status.
func (s *Service) SubmitBatch(spec BatchSpec) (BatchStatus, error) {
	specs, err := expandBatch(spec, s.batchLimit)
	if err != nil {
		return BatchStatus{}, err
	}
	ids, batch, err := s.enqueue(specs, true)
	if err != nil {
		return BatchStatus{}, err
	}
	st := BatchStatus{ID: batch, Jobs: ids}
	st.Total, st.Queued = len(ids), len(ids)
	return st, nil
}

// Batch reports the batch's member jobs and census, or ErrNoBatch.
func (s *Service) Batch(id string) (BatchStatus, error) {
	recs, err := s.store.List()
	if err != nil {
		return BatchStatus{}, err
	}
	st := BatchStatus{ID: id}
	for _, rec := range recs {
		if rec.Status.Batch != id {
			continue
		}
		st.Jobs = append(st.Jobs, rec.Status.ID)
		st.add(rec.Status.State, 1)
	}
	if st.Total == 0 {
		return BatchStatus{}, fmt.Errorf("%w: %s", ErrNoBatch, id)
	}
	return st, nil
}
