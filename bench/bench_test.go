package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestMain runs the tests from the repository root, where run.sh runs
// the benchmark, and lets the test binary stand in for the benchmark
// binary when a test's run starts a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main() // started from the root by a test below
		os.Exit(0)
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	cases := []struct {
		xs   []float64
		p    int
		want float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]float64{42}, 99, 42},
		{[]float64{1, 2, 3}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 75, 3},
	}
	for _, c := range cases {
		if got := nearestRank(c.xs, c.p); got != c.want {
			t.Errorf("nearestRank(%v, %d) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); !math.IsNaN(got) {
		t.Errorf("nearestRank(nil) = %v, want NaN", got)
	}
	if ten[0] != 10 {
		t.Error("nearestRank sorted its input in place")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, m, q3  float64
		whatPython string
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, "[2.75, 5.5, 8.25]"},
		{[]float64{3, 1, 2}, 1, 2, 3, "[1.0, 2.0, 3.0]"},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, "[0.75, 1.5, 2.25]"},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, "[1.5, 3.0, 4.5]"},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = [%v %v %v], Python gives %s", c.xs, q1, m, q3, c.whatPython)
		}
	}
}

// cannedTop is real `go tool pprof -top` output, rows picked from the
// profiles of a traced serve run (s units) and a covert golden run (ms
// units) to cover every kind of name the bucketer must parse.
const cannedTop = `File: spybench
Type: cpu
Time: 2026-10-16 02:52:28 UTC
Duration: 2.11s, Total samples = 2.39s (113.07%)
Showing nodes accounting for 2.39s, 100% of 2.39s total
      flat  flat%   sum%        cum   cum%
     0.31s 12.97% 28.03%      0.31s 12.97%  internal/runtime/syscall.Syscall6
     0.18s  7.53% 35.56%      0.26s 10.88%  encoding/json.appendCompact
     0.13s  5.44% 41.00%      0.24s 10.04%  runtime.scanobject
     0.09s  3.72% 48.76%      1.36s 56.20%  spybox/internal/sim.(*Machine).service
     0.05s  2.07% 56.20%      0.05s  2.07%  internal/sync.(*Mutex).Unlock (inline)
     0.04s  1.67% 54.39%      0.04s  1.67%  encoding/json.appendString[go.shape.string]
     0.02s  0.84% 65.69%      0.02s  0.84%  bytes.(*Buffer).Write
      30ms 10.00% 10.00%       40ms 13.33%  spybox/internal/xrand.(*Source).Norm
      20ms  6.67% 30.00%       20ms  6.67%  spybox/internal/l2cache.(*Cache).SetIndex
      20ms  6.67% 36.67%       20ms  6.67%  spybox/internal/l2cache.(*Cache).set (inline)
      10ms  3.33% 86.67%       70ms 23.33%  spybox/internal/cudart.(*Kernel).ProbeSetHits
      10ms  3.33% 93.33%       10ms  3.33%  spybox/internal/nvlink.(*Topology).Connected (inline)
      10ms  3.33%   100%       10ms  3.33%  sync.(*Mutex).Lock
         0     0%   100%       20ms  6.67%  fmt.Sprintf
`

func TestBucketTop(t *testing.T) {
	got, err := bucketTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.io_pct":      12.97,
		"cpu.json_pct":    7.53 + 1.67,
		"cpu.runtime_pct": 5.44 + 2.07 + 3.33,
		"cpu.sim_pct":     3.72,
		"cpu.other_pct":   0.84,
		"cpu.xrand_pct":   10.00,
		"cpu.l2cache_pct": 6.67 + 6.67,
		"cpu.cudart_pct":  3.33,
		"cpu.nvlink_pct":  3.33,
	}
	if len(got) != len(cpuLayers) {
		t.Fatalf("got %d buckets, want one per layer (%d)", len(got), len(cpuLayers))
	}
	for _, s := range got {
		if s.Unit != "%" || s.N != 239 {
			t.Errorf("%s: unit %q n=%d, want %% and n=239 (2.39s at 100 Hz)", s.Name, s.Unit, s.N)
		}
		if math.Abs(s.Value-want[s.Name]) > 1e-9 {
			t.Errorf("%s = %v, want %v", s.Name, s.Value, want[s.Name])
		}
	}
	if _, err := bucketTop("File: x\nType: cpu\n"); err == nil {
		t.Error("bucketTop accepted output without a table")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the metric test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestTinyRunEmitsEveryMetric runs each workload at a tiny size, with
// the simulation workloads cut down to one short experiment, and checks
// that the run reports exactly the metrics BENCHMARK.json names, with
// their units and a sample count. The traced run is checked on serve,
// the cheapest; its per-layer set does not depend on the workload.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if got, want := len(spec.Workloads), len(workloads); got != want {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", got, want)
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	tiny := map[string]workload{
		"covert":      {"covert", simLoad([]string{"fig4"}, 1, 10), nil},
		"sidechannel": {"sidechannel", simLoad([]string{"fig15"}, 0, 6.5), nil},
		"serve":       {"serve", serveLoad, nil},
	}
	check := func(t *testing.T, rec *runRecord, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
			t.Errorf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
		}
		got := map[string]sample{}
		for _, s := range rec.Metrics {
			got[s.Name] = s
		}
		if len(got) != len(want) || len(rec.Metrics) != len(want) {
			t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(rec.Metrics), len(want))
		}
		for _, m := range want {
			s, ok := got[m.Name]
			switch {
			case !ok:
				t.Errorf("%s not emitted", m.Name)
			case s.Unit != m.Unit:
				t.Errorf("%s unit %q, BENCHMARK.json says %q", m.Name, s.Unit, m.Unit)
			case s.N < 1:
				t.Errorf("%s has no sample count", m.Name)
			}
		}
	}
	for _, w := range spec.Workloads {
		w := tiny[w.Name]
		t.Run(w.name, func(t *testing.T) {
			rec, err := measure(context.Background(), w, 7, 20*time.Millisecond, false)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rec, spec.EndToEnd)
		})
	}
	t.Run("serve-traced", func(t *testing.T) {
		rec, err := measure(context.Background(), tiny["serve"], 7, time.Second, true)
		if err != nil {
			t.Fatal(err)
		}
		check(t, rec, spec.PerLayer)
		if len(rec.Spans) == 0 {
			t.Error("traced run recorded no spans")
		}
	})
}
