// E9-E12: the deep-learning model-extraction side channel (Fig. 13,
// Table II, Fig. 14, Fig. 15).
package expt

import (
	"fmt"
	"sort"

	"spybox/internal/core"
	"spybox/internal/memgram"
	"spybox/internal/plot"
	"spybox/internal/sim"
	"spybox/internal/victim"
)

// mlpDims returns (monitored sets, epoch cap, victim config template)
// per scale. The paper monitors 1024 unique L2 sets.
func mlpDims(s Scale) (sets, epochCap int, cfg victim.MLPVictimConfig) {
	// The victim must outlive several full probe sweeps of the
	// monitored sets or the spy sees nothing (one sweep of 1024 sets
	// is ~1.7M cycles); batch counts below are sized for ~5+ sweeps
	// even at the smallest hidden width. EpochGapOps must idle the
	// victim for several sweeps so the Fig. 15 epoch boundary is
	// visible in the memorygram.
	switch s {
	case Small:
		return 192, 160, victim.MLPVictimConfig{Epochs: 1, Samples: 480, BatchSize: 16, EpochGapOps: 40_000}
	default:
		return 1024, 420, victim.MLPVictimConfig{Epochs: 6, Samples: 672, BatchSize: 16, EpochGapOps: 200_000}
	}
}

// mlpHiddenSizes returns Table II's sweep. A function rather than a
// package var — expt is a detrand package.
func mlpHiddenSizes() []int { return []int{64, 128, 256, 512} }

// recordMLPGram runs one MLP victim's training kernel under the
// monitor.
func recordMLPGram(m *sim.Machine, spy *core.Attacker, sets []core.EvictionSet, epochCap int, v *victim.MLPVictim) (*memgram.Gram, *core.MonitorResult, error) {
	victimDone := false
	res, err := spy.MonitorConcurrent(sets, core.MonitorOptions{
		Epochs:    epochCap,
		StopEarly: func() bool { return victimDone },
	}, func() error { return v.Launch(&victimDone) })
	if err != nil {
		return nil, nil, err
	}
	gram, err := memgram.New(res.Miss, fmt.Sprintf("mlp-h%d", v.Cfg.Hidden))
	return gram, res, err
}

// mlpMeasure is the shared trial body for the MLP experiments: build
// a machine and spy from the trial seed, run the training kernel of
// one MLP victim with hidden width h under the monitor, and return the
// memorygram and monitor result.
func mlpMeasure(tp Params, h int) (*memgram.Gram, *core.MonitorResult, error) {
	m := machineFor(tp, sim.Options{Seed: tp.Seed})
	numSets, epochCap, base := mlpDims(tp.Scale)
	spy, spySets, err := setupSpy(m, tp, discoveryPages(m.Profile(), tp.Scale))
	if err != nil {
		return nil, nil, err
	}
	monitored := spreadSets(spySets, numSets)
	cfg := base
	cfg.Hidden = h
	v, err := victim.NewMLPVictim(m, trojanGPU, tp.Seed^uint64(h), cfg)
	if err != nil {
		return nil, nil, err
	}
	defer freeVictim(v)
	return recordMLPGram(m, spy, monitored, epochCap, v)
}

// Fig13 reproduces the per-set miss histograms for the four hidden
// sizes: miss intensity grows with the hidden layer. Trial-decomposed:
// one trial (machine + spy + victim) per hidden size.
func Fig13(p Params) (*Result, error) {
	sizes := mlpHiddenSizes()
	grams, err := RunTrials(p, len(sizes), func(t Trial) (*memgram.Gram, error) {
		gram, _, err := mlpMeasure(t.Params, sizes[t.Index])
		return gram, err
	})
	if err != nil {
		return nil, err
	}
	r := newResult("fig13", "Cache misses per set for MLP victims")
	for i, h := range sizes {
		gram := grams[i]
		totals := gram.SetTotals()
		fs := make([]float64, len(totals))
		for i, t := range totals {
			fs[i] = float64(t)
		}
		sort.Float64s(fs)
		med := fs[len(fs)/2]
		r.Rowf("hidden=%4d: total misses %7d, median per set %4.0f, max %4.0f",
			f("hidden", h), fu("total_misses", "misses", gram.Total()),
			fu("median_per_set", "misses", med), fu("max_per_set", "misses", fs[len(fs)-1]))
		r.SetMetric(fmt.Sprintf("total_misses_h%d", h), "misses", float64(gram.Total()))
	}
	r.Notef("miss intensity increases with hidden width, as in the paper's histograms.")
	return r, nil
}

// freeVictim returns an MLP victim's device allocations to the pool.
func freeVictim(v *victim.MLPVictim) {
	for _, al := range v.Proc.Space().Allocs() {
		// Every base comes straight from the live allocation list, so a
		// failed Free means the address space is corrupt — same class of
		// invariant violation the simulator panics on everywhere else.
		if err := v.Proc.Free(al.Base); err != nil {
			panic(fmt.Sprintf("expt: freeing victim allocation %#x: %v", uint64(al.Base), err))
		}
	}
}

// TableII reproduces the average-misses-over-all-sets table and the
// model-extraction decision: the attacker infers the hidden width by
// nearest-neighbour against a reference profile built offline.
// Trial-decomposed: the four reference measurements and the four
// extraction measurements are eight independent trials.
func TableII(p Params) (*Result, error) {
	paperAvg := map[int]float64{64: 5653, 128: 6846, 256: 8744, 512: 10197}
	sizes := mlpHiddenSizes()
	nRef := len(sizes)
	avgsOut, err := RunTrials(p, 2*nRef, func(t Trial) (float64, error) {
		_, res, err := mlpMeasure(t.Params, sizes[t.Index%nRef])
		if err != nil {
			return 0, err
		}
		return res.AvgMissesPerSet(), nil
	})
	if err != nil {
		return nil, err
	}

	r := newResult("table2", "Average misses over all cache sets")
	r.Notef("%-18s %-22s %s", "Number of Neurons", "Measured Avg Misses", "Paper Avg Misses")
	reference := map[int]float64{}
	avgs := avgsOut[:nRef]
	for i, h := range sizes {
		avg := avgs[i]
		reference[h] = avg
		r.Rowf("%-18d %-22.1f %.0f",
			f("neurons", h), fu("avg_misses", "misses", avg), fu("paper_avg_misses", "misses", paperAvg[h]))
		r.SetMetric(fmt.Sprintf("avg_misses_h%d", h), "misses", avg)
	}
	monotone := 1.0
	for i := 1; i < len(avgs); i++ {
		if avgs[i] <= avgs[i-1] {
			monotone = 0
		}
	}
	r.SetMetric("monotone_in_hidden", "", monotone)

	// Model extraction: fresh victims with unknown H (trials nRef..),
	// classified by nearest reference average.
	correct := 0
	for i, h := range sizes {
		obs := avgsOut[nRef+i]
		best, bestD := 0, -1.0
		for _, cand := range sizes {
			d := obs - reference[cand]
			if d < 0 {
				d = -d
			}
			if bestD < 0 || d < bestD {
				best, bestD = cand, d
			}
		}
		if best == h {
			correct++
		}
		r.Rowf("extraction trial: true hidden=%3d, observed avg %.1f -> inferred %d",
			f("true_hidden", h), fu("observed_avg", "misses", obs), f("inferred_hidden", best))
	}
	r.Rowf("model extraction: %d/%d hidden sizes recovered",
		f("extraction_correct", correct), f("extraction_total", len(sizes)))
	r.SetMetric("extraction_correct", "", float64(correct))
	return r, nil
}

// Fig14 renders the MLP memorygrams for 128 and 512 hidden neurons.
func Fig14(p Params) (*Result, error) {
	m := machineFor(p, sim.Options{Seed: p.Seed})
	numSets, epochCap, base := mlpDims(p.Scale)
	spy, spySets, err := setupSpy(m, p, discoveryPages(m.Profile(), p.Scale))
	if err != nil {
		return nil, err
	}
	monitored := spreadSets(spySets, numSets)
	r := newResult("fig14", "Memorygram of the MLP application")
	var totals []float64
	for _, h := range []int{128, 512} {
		cfg := base
		cfg.Hidden = h
		v, err := victim.NewMLPVictim(m, trojanGPU, p.Seed^uint64(h), cfg)
		if err != nil {
			return nil, err
		}
		gram, _, err := recordMLPGram(m, spy, monitored, epochCap, v)
		if err != nil {
			return nil, err
		}
		r.Chart(gram.RenderASCII(64, 14))
		attachPGM(r, fmt.Sprintf("fig14_h%d", h), gram)
		totals = append(totals, float64(gram.Total()))
		r.SetMetric(fmt.Sprintf("total_misses_h%d", h), "misses", float64(gram.Total()))
		freeVictim(v)
	}
	if totals[1] > totals[0] {
		r.Notef("512-neuron run shows denser misses than 128, matching Fig. 14a/b.")
	}
	return r, nil
}

// Fig15 trains a two-epoch MLP and recovers the epoch count from the
// memorygram's activity bursts. The monitored kernel issues only the
// training traffic; the victim's host-side SGD runs afterwards (Train)
// for the final_loss row, which no spy observation depends on.
func Fig15(p Params) (*Result, error) {
	m := machineFor(p, sim.Options{Seed: p.Seed})
	numSets, epochCap, base := mlpDims(p.Scale)
	spy, spySets, err := setupSpy(m, p, discoveryPages(m.Profile(), p.Scale))
	if err != nil {
		return nil, err
	}
	monitored := spreadSets(spySets, numSets)
	cfg := base
	cfg.Hidden = 128
	cfg.Epochs = 2
	// Size each training epoch to span a few probe sweeps so the two
	// bursts are individually visible.
	if p.Scale == Small {
		cfg.Samples = 160
	} else {
		cfg.Samples = 640
	}
	v, err := victim.NewMLPVictim(m, trojanGPU, p.Seed^0x15, cfg)
	if err != nil {
		return nil, err
	}
	gram, _, err := recordMLPGram(m, spy, monitored, epochCap*2, v)
	if err != nil {
		return nil, err
	}
	v.Train()
	r := newResult("fig15", "Memorygram for a two-epoch experiment")
	attachPGM(r, "fig15_two_epochs", gram)
	r.Chart(gram.RenderASCII(72, 14))
	bursts := gram.ActiveBursts(0.2, 2)
	r.Rowf("activity bursts detected: %d (victim trained %d epochs)",
		f("bursts_detected", bursts), f("epochs_trained", cfg.Epochs))
	r.Rowf("final training loss: %.3f", f("final_loss", v.FinalLoss))
	r.SetMetric("epochs_detected", "", float64(bursts))
	r.SetMetric("epochs_true", "", float64(cfg.Epochs))
	ep := gram.EpochTotals()
	series := plot.Series{Name: "misses per sweep"}
	for i, t := range ep {
		series.X = append(series.X, float64(i))
		series.Y = append(series.Y, float64(t))
	}
	r.Series = []plot.Series{series}
	return r, nil
}
