package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
	"spybox/pkg/spybox/service"
)

// The serve mix: every coldEvery-th job is fig4 at a fresh seed, which
// simulates and appends its result to the log; the rest are cache hits
// cycling over warmSeeds seeds answered before timing starts. A run is
// a fixed number of jobs, jobsPerSecond for every second of budget
// (8000 at 30 s), not a fixed time: the store grows with every job, so
// a faster service given a fixed time would grow a bigger store and
// show worse memory and restart times than a slower one. The jobs are
// split evenly into rounds of at most roundJobs, each against a fresh
// store, so a longer run measures more rounds rather than a bigger
// store.
const (
	warmSeeds     = 8
	coldEvery     = 10
	jobsPerSecond = 800.0 / 3
	roundJobs     = 4000
)

func warmSeed(seed uint64, i int) uint64 { return seed<<32 + 1 + uint64(i) }
func coldSeed(seed uint64, k int) uint64 { return seed<<32 + 1 + warmSeeds + uint64(k) }

func fig4Spec(seed uint64) spybox.JobSpec {
	return spybox.JobSpec{Experiments: []string{"fig4"}, Seed: seed, Scale: "small"}
}

// server is a LogStore-backed service with one worker per core,
// served over loopback HTTP.
type server struct {
	store  *service.LogStore
	svc    *service.Service
	http   *http.Server
	served chan error
	client *service.Client
}

func startServer(dir string) (*server, error) {
	st, err := service.OpenLogStore(dir)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{Store: st, Workers: runtime.NumCPU()})
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background())
		st.Close()
		return nil, err
	}
	s := &server{store: st, svc: svc, http: &http.Server{Handler: service.NewHandler(svc)},
		served: make(chan error, 1), client: service.NewClient(ln.Addr().String())}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server down, drains the service and closes the
// store, returning once the serving goroutine has exited.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.svc.Close(ctx); err == nil {
		err = cerr
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// jobTiming splits a job's latency at the client: Submit, the SSE wait
// for the terminal status, and fetching the result document.
type jobTiming struct{ submit, wait, result time.Duration }

func (t jobTiming) total() time.Duration { return t.submit + t.wait + t.result }

// runJob submits spec, follows its event stream to the terminal status
// and fetches the report/v1 document, recording a span per phase.
func runJob(ctx context.Context, cli *service.Client, spec spybox.JobSpec, tr *tracer) ([]byte, spybox.JobStatus, jobTiming, error) {
	span := tr.open("job", 0)
	defer tr.close(span)
	t0 := time.Now()
	id, err := cli.Submit(spec)
	t1 := time.Now()
	tr.record("submit", span, t0, t1)
	if err != nil {
		return nil, spybox.JobStatus{}, jobTiming{}, err
	}
	st, err := cli.Events(ctx, id, nil)
	t2 := time.Now()
	tr.record("wait", span, t1, t2)
	if err == nil && st.State != spybox.JobDone {
		err = fmt.Errorf("%s ended %s: %s", id, st.State, st.Error)
	}
	if err != nil {
		return nil, st, jobTiming{}, err
	}
	doc, err := cli.ResultDocument(id)
	t3 := time.Now()
	tr.record("result", span, t2, t3)
	return doc, st, jobTiming{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}, err
}

// warmUp answers one fig4 job per warm seed and checks the served
// documents before any timing: the first must equal report.Encode of a
// direct Session.Run of the same spec, and resubmitting it must be a
// cache hit whose document equals its cold twin's.
func warmUp(ctx context.Context, cli *service.Client, seed uint64) ([][]byte, error) {
	docs := make([][]byte, warmSeeds)
	for i := range docs {
		doc, _, _, err := runJob(ctx, cli, fig4Spec(warmSeed(seed, i)), nil)
		if err != nil {
			return nil, err
		}
		docs[i] = doc
	}
	sess, err := spybox.Open(spybox.Config{Seed: warmSeed(seed, 0), Scale: spybox.Small})
	if err != nil {
		return nil, err
	}
	rs, err := sess.Run(ctx, "fig4")
	if err != nil {
		return nil, err
	}
	var direct bytes.Buffer
	if err := report.Encode(&direct, rs...); err != nil {
		return nil, err
	}
	if !bytes.Equal(direct.Bytes(), docs[0]) {
		return nil, errors.New("served fig4 document differs from report.Encode of Session.Run")
	}
	hit, st, _, err := runJob(ctx, cli, fig4Spec(warmSeed(seed, 0)), nil)
	if err != nil {
		return nil, err
	}
	if st.CacheHits != 1 || !bytes.Equal(hit, docs[0]) {
		return nil, fmt.Errorf("resubmitted fig4 was not an identical cache hit (hits=%d)", st.CacheHits)
	}
	return docs, nil
}

// serveClient is one closed-loop client's tally.
type serveClient struct {
	ops, failed int
	hit, cold   []float64 // latency, ms
}

// serveLoad is the serve workload: its jobs in rounds, each on a fresh
// store, timed only while the round's clients run. The store the last
// round left behind is the one set-up restarts from.
func serveLoad(ctx context.Context, seed uint64, budget time.Duration, tr *tracer) (*loadResult, error) {
	total := int(math.Round(budget.Seconds() * jobsPerSecond))
	rounds := (total + roundJobs - 1) / roundJobs
	res := &loadResult{}
	var clients []serveClient
	first := 0
	for r := 0; r < rounds; r++ {
		res.cleanup()
		// Each round starts from an empty heap, as the first one does,
		// rather than on top of the last round's garbage.
		debug.FreeOSMemory()
		n := total / rounds
		if r < total%rounds {
			n++
		}
		dir, elapsed, cs, err := serveRound(ctx, seed, first, n, tr)
		res.store = dir
		if err != nil {
			res.cleanup()
			return nil, err
		}
		res.elapsed += elapsed
		clients = append(clients, cs...)
		first += n
	}

	var hit, cold []float64
	for _, sc := range clients {
		res.ops += sc.ops
		res.failed += sc.failed
		hit = append(hit, sc.hit...)
		cold = append(cold, sc.cold...)
	}
	res.lat = append(append(res.lat, hit...), cold...)
	res.extra = []sample{
		{"hit_p50_ms", nearestRank(hit, 50), "ms", len(hit)},
		{"hit_p90_ms", nearestRank(hit, 90), "ms", len(hit)},
		{"hit_p99_ms", nearestRank(hit, 99), "ms", len(hit)},
		{"cold_p50_ms", nearestRank(cold, 50), "ms", len(cold)},
		{"cold_p90_ms", nearestRank(cold, 90), "ms", len(cold)},
	}
	return res, nil
}

// serveRound starts a server on a fresh store and, after warmUp, runs
// jobs first..first+n-1 from a closed loop of one client per core, each
// submitting its next job only once the previous one's document has
// arrived. Every hit's document is checked against its warm twin; every
// cold one must decode to a fresh fig4 report. It returns the store
// directory, which the caller removes, even on error.
func serveRound(ctx context.Context, seed uint64, first, n int, tr *tracer) (string, time.Duration, []serveClient, error) {
	dir, err := os.MkdirTemp("", "spybench-store-")
	if err != nil {
		return "", 0, nil, err
	}
	srv, err := startServer(dir)
	if err != nil {
		return dir, 0, nil, err
	}
	warm, err := warmUp(ctx, srv.client, seed)
	if err != nil {
		srv.stop()
		return dir, 0, nil, fmt.Errorf("served-document check: %w", err)
	}

	clients := make([]serveClient, runtime.NumCPU())
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(sc *serveClient) {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= first+n {
					return
				}
				cold := k%coldEvery == coldEvery-1
				s := warmSeed(seed, k%warmSeeds)
				if cold {
					s = coldSeed(seed, k)
				}
				doc, st, tm, err := runJob(ctx, srv.client, fig4Spec(s), tr)
				sc.ops++
				switch {
				case err != nil:
					sc.failed++
					continue
				case cold:
					if st.CacheHits != 0 || !isFig4(doc) {
						sc.failed++
						continue
					}
					sc.cold = append(sc.cold, ms(tm.total()))
				default:
					if st.CacheHits != 1 || !bytes.Equal(doc, warm[k%warmSeeds]) {
						sc.failed++
						continue
					}
					sc.hit = append(sc.hit, ms(tm.total()))
				}
			}
		}(&clients[c])
	}
	wg.Wait()
	elapsed := time.Since(start)
	return dir, elapsed, clients, srv.stop()
}

// isFig4 reports whether doc decodes to exactly one fig4 report.
func isFig4(doc []byte) bool {
	rs, err := report.Decode(bytes.NewReader(doc))
	return err == nil && len(rs) == 1 && rs[0].ID == "fig4"
}

// serveSetup is a restart: a fresh process replays the store the load
// left behind and answers its first job.
func serveSetup(ctx context.Context, seed uint64, store string) error {
	srv, err := startServer(store)
	if err != nil {
		return err
	}
	_, _, _, err = runJob(ctx, srv.client, fig4Spec(warmSeed(seed, 0)), nil)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
