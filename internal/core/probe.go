// The Prime+Probe side-channel monitor (Sec. V). The spy, sitting on
// a different GPU, sweeps its eviction sets over the victim GPU's L2:
// each probe measures the per-line access times of one set,
// classifies them hit/miss against the reverse-engineered thresholds,
// and re-primes the set as a side effect. Accumulated over time, the
// per-set miss counts form the *memorygram* — the paper's Figs. 11,
// 13, 14 and 15 are renderings of exactly this structure.
package core

import (
	"fmt"

	"spybox/internal/arch"
	"spybox/internal/cudart"
)

// MonitorResult is the raw memorygram: Miss[epoch][set] counts how
// many lines of monitored set `set` missed during probe sweep
// `epoch`. A miss means somebody — the victim — displaced the spy's
// line since the previous sweep.
type MonitorResult struct {
	Miss       [][]int
	NumSets    int
	Epochs     int
	Duration   arch.Cycles
	ProbeCount int
}

// AvgMissesPerSet returns the mean total misses per monitored set
// over the whole run — Table II's statistic.
func (r *MonitorResult) AvgMissesPerSet() float64 {
	if r.NumSets == 0 {
		return 0
	}
	total := 0
	for _, row := range r.Miss {
		for _, m := range row {
			total += m
		}
	}
	return float64(total) / float64(r.NumSets)
}

// SetTotals returns total misses per set (the Fig. 13 histogram data).
func (r *MonitorResult) SetTotals() []int {
	totals := make([]int, r.NumSets)
	for _, row := range r.Miss {
		for s, m := range row {
			totals[s] += m
		}
	}
	return totals
}

// EpochTotals returns total misses per probe sweep (activity over
// time; quiet stretches separate training epochs in Fig. 15).
func (r *MonitorResult) EpochTotals() []int {
	totals := make([]int, len(r.Miss))
	for e, row := range r.Miss {
		for _, m := range row {
			totals[e] += m
		}
	}
	return totals
}

// MonitorOptions configure a monitoring run.
type MonitorOptions struct {
	// Epochs is the number of probe sweeps over all monitored sets.
	Epochs int
	// StopEarly, if non-nil, is checked between sweeps; when it
	// returns true the monitor stops (e.g. the victim finished).
	// Remaining epochs are recorded as all-zero rows so result
	// dimensions stay fixed for the classifier.
	StopEarly func() bool
	// SettleSweeps is how many initial prime-only sweeps to run
	// before recording (the first sweep of a cold buffer misses
	// everywhere and would be pure noise). Default 1.
	SettleSweeps int
	// DoneFlag, if non-nil, is set true when the monitor kernel
	// finishes; long-running victims use it to stop themselves so the
	// machine run can complete.
	DoneFlag *bool
}

// Monitor performs the side-channel measurement: it probes each set
// in sets once per epoch, recording per-set miss counts. The caller
// launches the victim before calling Machine.Run — Monitor only
// launches the spy kernel and must be paired with a run of the
// machine by the caller via RunMachine... (see MonitorConcurrent).
//
// Most callers want MonitorConcurrent, which handles the pairing.
func (a *Attacker) launchMonitor(sets []EvictionSet, opts MonitorOptions, res *MonitorResult) error {
	if len(sets) == 0 {
		return fmt.Errorf("core: no sets to monitor")
	}
	if opts.Epochs <= 0 {
		return fmt.Errorf("core: epochs must be positive")
	}
	settle := opts.SettleSweeps
	if settle == 0 {
		settle = 1
	}
	boundary := a.Thr.Boundary(a.Remote())
	res.NumSets = len(sets)
	res.Epochs = opts.Epochs
	res.Miss = make([][]int, opts.Epochs)
	for i := range res.Miss {
		res.Miss[i] = make([]int, len(sets))
	}
	// The spy block uses the full 32 KB shared-memory allowance as its
	// sample buffer, as in the paper.
	return a.Proc.Launch("pp-monitor", arch.MaxSharedMemPerBlock, func(k *cudart.Kernel) {
		if opts.DoneFlag != nil {
			defer func() { *opts.DoneFlag = true }()
		}
		var lats []arch.Cycles
		for s := 0; s < settle; s++ {
			for _, set := range sets {
				lats, _ = k.ProbeSet(lats, set.Lines)
			}
		}
		start := k.Now()
		for e := 0; e < opts.Epochs; e++ {
			if opts.StopEarly != nil && opts.StopEarly() {
				break
			}
			for si, set := range sets {
				lats, _ = k.ProbeSet(lats, set.Lines)
				misses := 0
				for _, l := range lats {
					if float64(l) > boundary {
						misses++
					}
				}
				res.Miss[e][si] = misses
				res.ProbeCount++
				k.SharedWrite()
			}
		}
		res.Duration = k.Now() - start
	})
}

// MonitorConcurrent launches the spy monitor, then the victim via
// launchVictim, runs the machine to completion, and returns the
// memorygram. launchVictim typically launches one or more victim
// kernels and may set a flag the monitor's StopEarly consults.
func (a *Attacker) MonitorConcurrent(sets []EvictionSet, opts MonitorOptions, launchVictim func() error) (*MonitorResult, error) {
	var res MonitorResult
	if err := a.launchMonitor(sets, opts, &res); err != nil {
		return nil, err
	}
	if launchVictim != nil {
		if err := launchVictim(); err != nil {
			return nil, err
		}
	}
	a.m.Run()
	return &res, nil
}
