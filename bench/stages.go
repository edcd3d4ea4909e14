package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
	"spybox/pkg/spybox/service"
)

// stageReps is how often each layer stage runs, each time on a fresh
// machine at its own seed; a stage's metric is the median.
const stageReps = 3

// sink keeps the compiler from discarding results of timed calls.
var sink any

// stageTimer records each stage's time per call, in ms, under the
// stage's metric name, with a span around every timed batch.
type stageTimer struct {
	tr    *tracer
	times map[string][]float64
	order []string
}

func (st *stageTimer) time(name string, parent, calls int, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	st.tr.record(strings.TrimSuffix(name, "_ms"), parent, t0, t1)
	if _, ok := st.times[name]; !ok {
		st.order = append(st.order, name)
	}
	st.times[name] = append(st.times[name], ms(t1.Sub(t0))/float64(calls))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (st *stageTimer) samples() []sample {
	var out []sample
	for _, name := range st.order {
		out = append(out, sample{name, median(st.times[name]), "ms", len(st.times[name])})
	}
	return out
}

// layerStages drives the machine-level toolkit step by step, the way
// the examples do: build a machine, characterize timing, discover
// eviction sets, align and transmit a covert channel, monitor a victim,
// featurize and classify its memorygram, train the MLP victim, reset
// the machine; then encode and decode a report. It returns each step's
// median time plus the machine's counters after the first repetition,
// which repeat exactly for a given seed.
func layerStages(ctx context.Context, seed uint64, tr *tracer) ([]sample, error) {
	st := &stageTimer{tr: tr, times: map[string][]float64{}}
	var counters []sample
	var cycles, nsPerCycle []float64
	for r := 0; r < stageReps; r++ {
		s := seed + uint64(r)
		rep := tr.open("stages", 0)
		var m *spybox.Machine
		err := st.time("sim.new_machine_ms", rep, 1, func() (err error) {
			m, err = spybox.NewMachine(spybox.MachineOptions{Seed: s})
			return err
		})
		if err != nil {
			return nil, err
		}
		var thr spybox.Thresholds
		err = st.time("core.characterize_ms", rep, 1, func() error {
			p, err := spybox.CharacterizeTiming(m, 0, 1, 48, s)
			if err == nil {
				thr = p.Thresholds
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		var trojan, spy *spybox.Attacker
		var trojanSets, spySets []spybox.EvictionSet
		err = st.time("core.discover_ms", rep, 1, func() (err error) {
			if trojan, err = spybox.NewAttacker(m, 0, 0, 256, thr, s^1); err != nil {
				return err
			}
			if spy, err = spybox.NewAttacker(m, 1, 0, 256, thr, s^2); err != nil {
				return err
			}
			tg, err := trojan.DiscoverPageGroups(trojan.Ways())
			if err != nil {
				return err
			}
			sg, err := spy.DiscoverPageGroups(spy.Ways())
			if err != nil {
				return err
			}
			trojanSets = trojan.AllEvictionSets(tg, trojan.Ways())
			spySets = spy.AllEvictionSets(sg, spy.Ways())
			return nil
		})
		if err != nil {
			return nil, err
		}
		var pairs []spybox.AlignedPair
		err = st.time("core.align_ms", rep, 1, func() (err error) {
			pairs, err = spybox.AlignChannels(trojan, spy, trojanSets, spySets, 4)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = st.time("core.transmit_ms", rep, 1, func() error {
			ch, err := spybox.NewChannel(trojan, spy, pairs, spybox.DefaultCovertConfig())
			if err != nil {
				return err
			}
			t0 := time.Now()
			tx, err := ch.Transmit([]byte("spybench covert stage"))
			if err != nil {
				return err
			}
			cycles = append(cycles, float64(tx.Duration))
			nsPerCycle = append(nsPerCycle, float64(time.Since(t0))/float64(tx.Duration))
			return nil
		})
		if err != nil {
			return nil, err
		}
		var gram *spybox.Memorygram
		err = st.time("core.monitor_ms", rep, 1, func() (err error) {
			gram, err = monitorVictim(m, spy, spySets, s)
			return err
		})
		if err != nil {
			return nil, err
		}
		const featureCalls = 50
		err = st.time("memgram.features_ms", rep, featureCalls, func() error {
			for i := 0; i < featureCalls; i++ {
				sink = gram.Features()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := classifyStage(st, rep, gram.Features()); err != nil {
			return nil, err
		}
		v, err := spybox.NewMLPVictim(m, 0, s, spybox.MLPVictimConfig{Hidden: 256, Epochs: 1, Samples: 64, BatchSize: 16})
		if err != nil {
			return nil, err
		}
		// One epoch of the victim's host-side SGD, without the device
		// traffic Launch would interleave with it.
		err = st.time("victim.mlp_train_ms", rep, 1, func() error {
			for i, img := range v.Data.Images {
				sink = v.Net.TrainSample(img, v.Data.Labels[i])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if r == 0 {
			counters = machineCounters(m)
		}
		if err := st.time("sim.reset_ms", rep, 1, func() error { m.Reset(s); return nil }); err != nil {
			return nil, err
		}
		tr.close(rep)
	}
	if err := reportStages(ctx, st, seed); err != nil {
		return nil, err
	}
	out := append(st.samples(),
		sample{"sim.cycles", median(cycles), "count", len(cycles)},
		sample{"sim.host_ns_per_cycle", median(nsPerCycle), "ns", len(nsPerCycle)})
	return append(out, counters...), nil
}

// monitorVictim primes and probes 64 of the spy's eviction sets from
// GPU1 while a matmul victim runs on GPU0, and returns the memorygram.
func monitorVictim(m *spybox.Machine, spy *spybox.Attacker, sets []spybox.EvictionSet, seed uint64) (*spybox.Memorygram, error) {
	monitored := make([]spybox.EvictionSet, 64)
	for i := range monitored {
		monitored[i] = sets[i*len(sets)/len(monitored)]
	}
	app, err := spybox.NewVictimApp("matmul", m, 0, seed, spybox.VictimConfig{ArrayKB: 256, Passes: 400, ChunkDelay: 2500})
	if err != nil {
		return nil, err
	}
	victimDone, monitorDone := false, false
	app.Stop = &monitorDone
	res, err := spy.MonitorConcurrent(monitored, spybox.MonitorOptions{
		Epochs:    56,
		StopEarly: func() bool { return victimDone },
		DoneFlag:  &monitorDone,
	}, func() error { return app.Launch(&victimDone) })
	if err != nil {
		return nil, err
	}
	for _, al := range app.Proc.Space().Allocs() {
		if err := app.Proc.Free(al.Base); err != nil {
			return nil, err
		}
	}
	return spybox.NewMemorygram(res.Miss, "matmul")
}

// classifyStage times k-NN prediction against 36 training samples
// spread around the monitored victim's features, six per class.
func classifyStage(st *stageTimer, parent int, x []float64) error {
	train := make([]spybox.ClassifySample, 36)
	for i := range train {
		xi := make([]float64, len(x))
		for j, v := range x {
			xi[j] = v * (1 + 0.01*float64((i*7+j)%13-6))
		}
		train[i] = spybox.ClassifySample{X: xi, Y: i % 6}
	}
	knn, err := spybox.NewKNN(3, train)
	if err != nil {
		return err
	}
	const calls = 200
	return st.time("classify.knn_ms", parent, calls, func() error {
		for i := 0; i < calls; i++ {
			sink = knn.Predict(x)
		}
		return nil
	})
}

// machineCounters reads the L2, HBM and NVLink counters of every GPU.
func machineCounters(m *spybox.Machine) []sample {
	var hits, misses, reads, rowHits uint64
	for d := 0; d < m.NumGPUs(); d++ {
		dev := m.Device(spybox.DeviceID(d))
		h, mi, _ := dev.L2().Totals()
		hits, misses = hits+h, misses+mi
		r, rh, _ := dev.HBM().Stats()
		reads, rowHits = reads+r, rowHits+rh
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return []sample{
		{"l2cache.accesses", float64(hits + misses), "count", 1},
		{"l2cache.miss_ratio", ratio(misses, hits+misses), "ratio", 1},
		{"hbm.reads", float64(reads), "count", 1},
		{"hbm.row_hit_ratio", ratio(rowHits, reads), "ratio", 1},
		{"nvlink.transactions", float64(m.Topology().TotalTransactions()), "count", 1},
	}
}

// reportStages times the report/v1 codec on the document a serve job
// returns (one fig4 result).
func reportStages(ctx context.Context, st *stageTimer, seed uint64) error {
	sess, err := spybox.Open(spybox.Config{Seed: seed, Scale: spybox.Small})
	if err != nil {
		return err
	}
	rs, err := sess.Run(ctx, "fig4")
	if err != nil {
		return err
	}
	const calls = 100
	var doc bytes.Buffer
	for r := 0; r < stageReps; r++ {
		err := st.time("report.encode_ms", 0, calls, func() error {
			for i := 0; i < calls; i++ {
				doc.Reset()
				if err := report.Encode(&doc, rs...); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = st.time("report.decode_ms", 0, calls, func() (err error) {
			for i := 0; i < calls; i++ {
				if sink, err = report.Decode(bytes.NewReader(doc.Bytes())); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// stageJobs is the length of the sequential job series serviceStages
// runs; every coldEvery-th job is cold, as in the serve workload.
const stageJobs = 200

// serviceStages runs one client's job series against a fresh store,
// splitting each job into submit, SSE wait and result fetch; then it
// times LogStore.Put (one fsynced append) and LogStore.Compact on the
// store the series filled.
func serviceStages(ctx context.Context, seed uint64, tr *tracer) ([]sample, error) {
	dir, err := os.MkdirTemp("", "spybench-stage-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	var submit, wait, result, hit []float64
	for k := 0; k < stageJobs; k++ {
		s := warmSeed(seed, 0)
		if k%coldEvery == coldEvery-1 {
			s = coldSeed(seed, k)
		}
		_, status, tm, err := runJob(ctx, srv.client, fig4Spec(s), tr)
		if err != nil {
			srv.stop()
			return nil, err
		}
		submit = append(submit, ms(tm.submit))
		wait = append(wait, ms(tm.wait))
		result = append(result, ms(tm.result))
		if status.CacheHits == 1 {
			hit = append(hit, ms(tm.total()))
		}
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	store, err := service.OpenLogStore(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	recs, err := store.List()
	if err != nil {
		return nil, err
	}
	rec := recs[len(recs)-1]
	st := &stageTimer{tr: tr, times: map[string][]float64{}}
	for i := 0; i < 50; i++ {
		rec.Status.ID = spybox.JobID(fmt.Sprintf("stage-put-%d", i))
		if err := st.time("service.store_put_ms", 0, 1, func() error { return store.Put(rec) }); err != nil {
			return nil, err
		}
	}
	if err := st.time("service.compact_ms", 0, 1, store.Compact); err != nil {
		return nil, err
	}
	fi, err := os.Stat(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		return nil, err
	}
	return append([]sample{
		{"service.submit_ms", median(submit), "ms", len(submit)},
		{"service.wait_ms", median(wait), "ms", len(wait)},
		{"service.result_ms", median(result), "ms", len(result)},
		{"service.hit_p99_ms", nearestRank(hit, 99), "ms", len(hit)},
		{"service.snapshot_mb", float64(fi.Size()) / (1 << 20), "MB", 1},
	}, st.samples()...), nil
}
