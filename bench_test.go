// Benchmark harness: one benchmark per paper table/figure (regenerating
// the experiment at small scale and reporting its headline metric), the
// ablation benches, and the engine/runner perf baselines. EXPERIMENTS.md
// indexes the experiments and their headline metrics.
//
// Run with: go test -bench=. -benchmem
package main

import (
	"fmt"
	"strings"
	"testing"

	"spybox/internal/arch"
	"spybox/internal/core"
	"spybox/internal/cudart"
	"spybox/internal/expt"
	"spybox/internal/game"
	"spybox/internal/l2cache"
	"spybox/internal/sim"
	"spybox/internal/xrand"
)

// benchParams gives every benchmark iteration a distinct seed so
// repeated iterations measure fresh machines, not cached state.
// Parallel is pinned to 1: the per-figure benches measure serial
// experiment cost, comparable across hosts; BenchmarkRunnerTrials
// measures the fan-out separately.
func benchParams(i int) expt.Params {
	return expt.Params{Seed: 0xb000 + uint64(i), Scale: expt.Small, Parallel: 1}
}

// runExperiment is the shared per-figure bench body.
func runExperiment(b *testing.B, id string, metric string) {
	b.Helper()
	e, ok := expt.Lookup(id)
	if !ok {
		b.Fatalf("no experiment %q", id)
	}
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := e.Run(benchParams(i))
		if err != nil {
			b.Fatal(err)
		}
		acc += res.Metrics[metric]
	}
	// testing.B forbids whitespace in metric units.
	unit := strings.NewReplacer(" ", "_", "+", "p").Replace(metric)
	b.ReportMetric(acc/float64(b.N), unit)
}

func BenchmarkFig4TimingHistogram(b *testing.B) {
	runExperiment(b, "fig4", "remote_boundary")
}

func BenchmarkFig5EvictionValidation(b *testing.B) {
	runExperiment(b, "fig5", "eviction_step_remote")
}

func BenchmarkTableICacheGeometry(b *testing.B) {
	runExperiment(b, "table1", "sets")
}

func BenchmarkFig7SetAlignment(b *testing.B) {
	runExperiment(b, "fig7", "aligned_fraction")
}

func BenchmarkFig9BandwidthErrorRate(b *testing.B) {
	runExperiment(b, "fig9", "best_bandwidth_MBps")
}

func BenchmarkFig10MessageTrace(b *testing.B) {
	runExperiment(b, "fig10", "bit_error_rate")
}

func BenchmarkFig11Memorygrams(b *testing.B) {
	runExperiment(b, "fig11", "total_misses_matmul")
}

func BenchmarkFig12Fingerprint(b *testing.B) {
	runExperiment(b, "fig12", "test_accuracy")
}

func BenchmarkFig13MissesPerSet(b *testing.B) {
	runExperiment(b, "fig13", "total_misses_h512")
}

func BenchmarkTableIIAvgMisses(b *testing.B) {
	runExperiment(b, "table2", "extraction_correct")
}

func BenchmarkFig14MLPMemorygrams(b *testing.B) {
	runExperiment(b, "fig14", "total_misses_h512")
}

func BenchmarkFig15EpochCount(b *testing.B) {
	runExperiment(b, "fig15", "epochs_detected")
}

func BenchmarkSecVINoiseMitigation(b *testing.B) {
	runExperiment(b, "sec6", "error_blocked_pct")
}

func BenchmarkSecVIIDetection(b *testing.B) {
	runExperiment(b, "sec7", "detected_covert channel active")
}

// --- Ablations (see EXPERIMENTS.md) ---

// tinyCfg is the small geometry the ablations attack, so each
// iteration is cheap.
func tinyCfg(policy l2cache.ReplacementPolicy, hash bool) l2cache.Config {
	return l2cache.Config{Sets: 64, Ways: 4, LineSize: 128, PageSize: 4096, Policy: policy, HashIndex: hash}
}

// covertErrorOn builds a covert channel on the given machine config
// and returns the transmission error rate. Discovery failures (the
// point of the randomized-replacement ablation) surface as an error.
func covertErrorOn(cfg l2cache.Config, seed uint64) (float64, error) {
	m := sim.MustNewMachine(sim.Options{Seed: seed, CacheCfg: cfg})
	thr := core.DefaultThresholds()
	trojan, err := core.NewAttacker(m, 0, 0, 24, thr, seed^1)
	if err != nil {
		return 0, err
	}
	spy, err := core.NewAttacker(m, 1, 0, 24, thr, seed^2)
	if err != nil {
		return 0, err
	}
	tg, err := trojan.DiscoverPageGroups(cfg.Ways)
	if err != nil {
		return 0, err
	}
	sg, err := spy.DiscoverPageGroups(cfg.Ways)
	if err != nil {
		return 0, err
	}
	pairs, err := core.AlignChannels(trojan, spy,
		trojan.AllEvictionSets(tg, cfg.Ways), spy.AllEvictionSets(sg, cfg.Ways), 2)
	if err != nil {
		return 0, err
	}
	ch, err := core.NewChannel(trojan, spy, pairs, core.DefaultCovertConfig())
	if err != nil {
		return 0, err
	}
	tx, err := ch.Transmit([]byte("ablation probe message"))
	if err != nil {
		return 0, err
	}
	return tx.ErrorRate(), nil
}

// BenchmarkAblationReplacementPolicy compares the attack under the
// observed LRU policy vs. a randomized-replacement defense: under
// randomization, eviction-set discovery and the channel degrade
// (often failing outright), confirming why deterministic LRU is
// load-bearing for the paper's attack.
func BenchmarkAblationReplacementPolicy(b *testing.B) {
	for _, bc := range []struct {
		name   string
		policy l2cache.ReplacementPolicy
	}{{"LRU", l2cache.LRU}, {"random", l2cache.RandomRepl}} {
		b.Run(bc.name, func(b *testing.B) {
			fails, errSum := 0, 0.0
			for i := 0; i < b.N; i++ {
				e, err := covertErrorOn(tinyCfg(bc.policy, true), 0xab1+uint64(i))
				if err != nil {
					fails++
					continue
				}
				errSum += e
			}
			b.ReportMetric(float64(fails)/float64(b.N), "attack_failures/op")
			if b.N > fails {
				b.ReportMetric(errSum/float64(b.N-fails), "bit_error_rate")
			}
		})
	}
}

// BenchmarkAblationIndexHash measures discovery with and without the
// physical index hash: discovery works either way (the attack never
// assumed the hash's shape), with comparable cost.
func BenchmarkAblationIndexHash(b *testing.B) {
	for _, bc := range []struct {
		name string
		hash bool
	}{{"hashed", true}, {"unhashed", false}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := sim.MustNewMachine(sim.Options{Seed: 0x4a5 + uint64(i), CacheCfg: tinyCfg(l2cache.LRU, bc.hash)})
				// 40 pages over 2 regions: every region gets enough
				// pages for full coverage at any seed.
				a, err := core.NewAttacker(m, 0, 0, 40, core.DefaultThresholds(), uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				groups, err := a.DiscoverPageGroups(4)
				if err != nil {
					b.Fatal(err)
				}
				if got := len(a.AllEvictionSets(groups, 4)); got != 64 {
					b.Fatalf("discovered %d sets, want 64", got)
				}
			}
		})
	}
}

// BenchmarkAblationProbeParallelism compares the faithful sequential
// Algorithm 1 pointer chase against the warp-parallel batched probe
// used in production discovery: same verdicts, very different cost.
func BenchmarkAblationProbeParallelism(b *testing.B) {
	m := sim.MustNewMachine(sim.Options{Seed: 0xfe, CacheCfg: tinyCfg(l2cache.LRU, true)})
	a, err := core.NewAttacker(m, 0, 0, 24, core.DefaultThresholds(), 9)
	if err != nil {
		b.Fatal(err)
	}
	target := a.LineVA(0, 0)
	chain := make([]uint64, a.Pages-1)
	for i := range chain {
		chain[i] = uint64((i + 1) * a.ChunkSize)
	}
	b.Run("sequential-alg1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := a.Algorithm1Chase(target, chain, len(chain)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warp-batched", func(b *testing.B) {
		vas := make([]arch.VA, len(chain))
		for i, off := range chain {
			vas[i] = a.Buf + arch.VA(off)
		}
		for i := 0; i < b.N; i++ {
			err := a.Proc.Launch("bench-trial", 0, func(k *cudart.Kernel) {
				k.TouchCG(target)
				k.ProbeSet(nil, vas)
				k.TouchCG(target)
			})
			if err != nil {
				b.Fatal(err)
			}
			m.Run()
		}
	})
}

// BenchmarkAblationContentionNoise sweeps the port-contention noise
// coefficient and reports the covert channel error rate: the
// mechanism behind Fig. 9's error curve.
func BenchmarkAblationContentionNoise(b *testing.B) {
	for _, sigma := range []float64{7, 28, 112, 448} {
		b.Run(fmt.Sprintf("sigma%.0f", sigma), func(b *testing.B) {
			var errSum float64
			prof := arch.P100DGX1()
			prof.Lat.ContentionSigmaPer = sigma
			for i := 0; i < b.N; i++ {
				m := sim.MustNewMachine(sim.Options{
					Seed: 0xc0 + uint64(i), Profile: &prof, CacheCfg: tinyCfg(l2cache.LRU, true),
				})
				thr := core.DefaultThresholds()
				trojan, _ := core.NewAttacker(m, 0, 0, 24, thr, 1)
				spy, _ := core.NewAttacker(m, 1, 0, 24, thr, 2)
				tg, err := trojan.DiscoverPageGroups(4)
				if err != nil {
					b.Fatal(err)
				}
				sg, err := spy.DiscoverPageGroups(4)
				if err != nil {
					b.Fatal(err)
				}
				pairs, err := core.AlignChannels(trojan, spy,
					trojan.AllEvictionSets(tg, 4), spy.AllEvictionSets(sg, 4), 2)
				if err != nil {
					b.Fatal(err)
				}
				ch, _ := core.NewChannel(trojan, spy, pairs, core.DefaultCovertConfig())
				tx, err := ch.Transmit([]byte("noise sweep"))
				if err != nil {
					b.Fatal(err)
				}
				errSum += tx.ErrorRate()
			}
			b.ReportMetric(errSum/float64(b.N), "bit_error_rate")
		})
	}
}

// --- Engine and runner perf baselines ---

// BenchmarkSchedulerEvents measures the discrete-event engine's hot
// path — park, heap push/pop, service, baton handoff — with varying
// numbers of live workers contending for the schedule. One worker is
// always its own successor and never switches coroutines; more workers
// add a coroutine switch through Run whenever the next event is
// another's. ns/op is the cost of one simulated shared-hardware event;
// events/s is the engine's throughput.
func BenchmarkSchedulerEvents(b *testing.B) {
	for _, nw := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("workers%d", nw), func(b *testing.B) {
			m := sim.MustNewMachine(sim.Options{Seed: 0x5c4ed, NoiseOff: true})
			per := b.N/nw + 1
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < nw; w++ {
				base := uint64(0x100000 + w*0x40000)
				if _, err := m.Spawn(0, sim.NoOwner, "bench", 0, func(wk *sim.Worker) {
					for i := 0; i < per; i++ {
						// Cycle over 32 lines: mostly L2 hits, so the
						// benchmark times the engine, not the HBM model.
						wk.TouchCG(arch.MakePA(0, base+uint64(i%32)*arch.CacheLineSize))
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
			m.Run()
			b.ReportMetric(float64(nw*per)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkRunnerTrials measures trial fan-out overhead and scaling:
// eight identical trials per op, serially and over the worker pool.
// Machines come from each trial worker's machine slot
// (Params.MachineFor), so after a worker's first trial each trial is a
// Reset + run rather than a full build — the trial-path hot loop
// experiments actually ride. trials/s
// is the headline; on a multi-core host the parallel variant should
// approach serial * min(8, cores).
func BenchmarkRunnerTrials(b *testing.B) {
	const trials = 8
	body := func(t expt.Trial) (int, error) {
		m, err := t.Params.MachineFor(sim.Options{Seed: t.Params.Seed, NoiseOff: true})
		if err != nil {
			return 0, err
		}
		touches := 0
		if _, err := m.Spawn(0, sim.NoOwner, "trial", 0, func(wk *sim.Worker) {
			for i := 0; i < 2000; i++ {
				wk.TouchCG(arch.MakePA(0, uint64(0x200000+(i%64)*arch.CacheLineSize)))
				touches++
			}
		}); err != nil {
			return 0, err
		}
		m.Run()
		return touches, nil
	}
	for _, parallel := range []int{1, 0} { // 0 = GOMAXPROCS
		name := fmt.Sprintf("parallel%d", parallel)
		if parallel == 0 {
			name = "parallelMax"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := expt.Params{Seed: 0xb417 + uint64(i), Scale: expt.Small, Parallel: parallel}
				out, err := expt.RunTrials(p, trials, body)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != trials {
					b.Fatalf("got %d trial results", len(out))
				}
			}
			b.ReportMetric(float64(trials*b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkMachineReset compares building a machine from scratch with
// rewinding one in place — the per-trial cost a trial worker's
// MachineSlot turns every repeat build into. The reset path's
// allocs/op should be 0.
func BenchmarkMachineReset(b *testing.B) {
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim.MustNewMachine(sim.Options{Seed: uint64(i), NoiseOff: true})
		}
	})
	b.Run("reset", func(b *testing.B) {
		m := sim.MustNewMachine(sim.Options{Seed: 0, NoiseOff: true})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset(uint64(i))
		}
	})
}

// BenchmarkProbeAlloc measures the steady-state warp-probe event with
// -benchmem as the zero-allocation gate: the embedded request, the
// caller-owned latency buffer passed back into every probe, and the
// slice-based contention tracker together must keep the per-event
// alloc count at 0 (the worker's one-time spawn amortizes out over N).
func BenchmarkProbeAlloc(b *testing.B) {
	m := sim.MustNewMachine(sim.Options{Seed: 0xa110c, NoiseOff: true})
	pas := make([]arch.PA, 16)
	for i := range pas {
		pas[i] = arch.MakePA(0, uint64(0x300000+i*arch.CacheLineSize))
	}
	lats := make([]arch.Cycles, len(pas))
	if _, err := m.Spawn(0, sim.NoOwner, "probe", 0, func(w *sim.Worker) {
		for i := 0; i < b.N; i++ {
			lats, _ = w.ProbeLines(lats, pas)
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "probes/s")
}

// BenchmarkExtMIGDefense regenerates the MIG-partitioning extension
// experiment: the attack must align on the stock box and fail under
// partitioning.
func BenchmarkExtMIGDefense(b *testing.B) {
	runExperiment(b, "mig", "mig_aligned")
}

// BenchmarkExtAllPairs regenerates the every-NVLink-pair timing sweep.
func BenchmarkExtAllPairs(b *testing.B) {
	runExperiment(b, "pairs", "connected_pairs")
}

// BenchmarkExtMultiGPU regenerates the additional-spy-GPUs extension.
func BenchmarkExtMultiGPU(b *testing.B) {
	runExperiment(b, "multigpu", "bw_2_4+4 sets")
}

// BenchmarkGameRound measures the arms-race engine's per-round
// decision cost — both policies plus trace recording — with -benchmem
// as the zero-allocation gate: policies are inline value state and
// the trace is preallocated, so a match of any length costs exactly
// one engine allocation up front.
func BenchmarkGameRound(b *testing.B) {
	const rounds = 64
	eng, err := game.New(game.Config{Rounds: rounds, Planes: 6, Aggressiveness: 0.75}, xrand.New(0x9a3e))
	if err != nil {
		b.Fatal(err)
	}
	obs := game.Observation{
		CovertRate: 9000, Threshold: 2000, ErrPct: 30,
		TxPlane: 1, LocalPlane: 1, BenignPlane: 5, ThrottledPlane: -1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%rounds == 0 {
			eng.Reset()
		}
		eng.Step(obs)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkExtFabricSweep regenerates the switch-port contention
// sweep (v100-dgx2, four competitor counts).
func BenchmarkExtFabricSweep(b *testing.B) {
	runExperiment(b, "fabricsweep", "err_rise_pct")
}

// BenchmarkExtArmsRace regenerates the attacker-vs-defense arms race
// (four defender settings).
func BenchmarkExtArmsRace(b *testing.B) {
	runExperiment(b, "armsrace", "dominates")
}
