package service

import (
	"context"
	"testing"

	"spybox/pkg/spybox"
)

// BenchmarkServiceSubmit measures the job pipeline's overhead on the
// cache-hit path — submit, queue, worker claim, store lookup, store
// updates, wait — with the simulation itself amortized out by a warm
// store. This is the service's request-latency floor: what a
// duplicate submission costs once the box is warm.
func BenchmarkServiceSubmit(b *testing.B) {
	svc, err := New(Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	spec := spybox.JobSpec{Experiments: []string{"fig4"}, Scale: "small", Parallel: 1}
	warm, err := svc.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	if st, err := svc.Wait(context.Background(), warm); err != nil || st.State != spybox.JobDone {
		b.Fatalf("warmup: %+v, %v", st, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := svc.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		st, err := svc.Wait(context.Background(), id)
		if err != nil || st.State != spybox.JobDone || st.CacheHits != 1 {
			b.Fatalf("iteration %d: %+v, %v", i, st, err)
		}
	}
	b.StopTimer()
	if hits, misses := svc.hits.Load(), svc.misses.Load(); hits != int64(b.N) || misses != 1 {
		b.Fatalf("counters: %d hits, %d misses; want %d, 1", hits, misses, b.N)
	}
}
