package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is the ID of the span that caused it, 0 for
// none; times are nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs stay untraced.
type tracer struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// open starts a span and returns its ID for close and for children.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
}

// record adds a span that has already ended.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))})
}

// tracedRun measures the per-layer metrics. The first half of the
// budget runs the load untraced, which also sets the process's peak
// RSS, the second half under the CPU profiler and the span tracer, so
// the difference in throughput is the tracing overhead; then each
// layer's stages run on their own.
func tracedRun(ctx context.Context, w workload, seed uint64, budget time.Duration, rec *runRecord) (*loadResult, error) {
	plain, err := w.load(ctx, seed, budget/2, nil)
	if err != nil {
		return nil, err
	}
	plain.cleanup()
	rss := maxRSSMB()

	tr := newTracer(w.name)
	prof, err := os.CreateTemp("", "spybench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(prof.Name())
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0 := cpuSeconds()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	res, err := w.load(ctx, seed, budget/2, tr)
	pprof.StopCPUProfile()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&mem1)
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.cleanup()

	shares, err := cpuShares(prof.Name())
	if err != nil {
		return nil, err
	}
	stages, err := layerStages(ctx, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("layer stages: %w", err)
	}
	svc, err := serviceStages(ctx, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("service stages: %w", err)
	}
	ops := float64(res.ops)
	rec.Metrics = append(append(append(shares, stages...), svc...), opLatency(plain, "load.")...)
	rec.Metrics = append(rec.Metrics,
		sample{"load.max_rss_mb", rss, "MB", 1},
		sample{"load.cpu_ms_per_op", (cpu1 - cpu0) * 1000 / ops, "ms", res.ops},
		sample{"load.alloc_kb_per_op", float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / ops, "KB", res.ops},
		sample{"load.trace_overhead_pct", (opsPerSecond(plain).Value/opsPerSecond(res).Value - 1) * 100, "%", res.ops},
	)
	rec.Extra = res.extra
	rec.Spans = tr.spans
	res.ops += plain.ops
	res.failed += plain.failed
	return res, nil
}

// cpuLayers are the CPU buckets of a traced run, in report order: the
// repository's internal modules (the first internalLayers entries),
// math, the public report and service packages, the Go runtime, I/O
// (where fsync lands), networking, JSON, and everything else.
var cpuLayers = []string{"sim", "l2cache", "xrand", "nvlink", "hbm", "victim", "core", "cudart",
	"memgram", "classify", "expt", "math", "report", "service", "runtime", "io", "net", "json", "other"}

const internalLayers = 11

// cpuShares buckets a CPU profile's flat time by layer, through
// `go tool pprof -top`.
func cpuShares(profile string) ([]sample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return bucketTop(string(out))
}

// bucketTop sums the flat% column of `pprof -top` output by layer. The
// sample count is the profile's total CPU time at the profiler's
// default 100 Hz.
func bucketTop(top string) ([]sample, error) {
	pct := map[string]float64{}
	samples, rows := 0, 0
	inTable := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if _, total, ok := strings.Cut(line, "Total samples = "); ok {
			if d, err := time.ParseDuration(strings.Fields(total)[0]); err == nil {
				samples = int(d / (10 * time.Millisecond))
			}
		}
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", line, err)
		}
		pct[layerOf(pkgOf(strings.Join(f[5:], " ")))] += v
		rows++
	}
	if rows == 0 {
		return nil, errors.New("pprof -top printed no profile rows")
	}
	out := make([]sample, len(cpuLayers))
	for i, l := range cpuLayers {
		out[i] = sample{"cpu." + l + "_pct", pct[l], "%", samples}
	}
	return out, nil
}

// pkgOf returns the import path of the package a pprof function name
// belongs to, e.g. "spybox/internal/sim" for
// "spybox/internal/sim.(*engine).runAll".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a package to its CPU bucket.
func layerOf(pkg string) string {
	under := func(prefixes ...string) bool {
		for _, p := range prefixes {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return true
			}
		}
		return false
	}
	if name, ok := strings.CutPrefix(pkg, "spybox/internal/"); ok {
		for _, l := range cpuLayers[:internalLayers] {
			if name == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "spybox/pkg/spybox/report":
		return "report"
	case pkg == "spybox/pkg/spybox/service":
		return "service"
	case under("math"):
		return "math"
	case under("syscall", "internal/runtime/syscall", "os", "internal/poll", "internal/syscall", "io", "bufio"):
		return "io" // every system call, fsync and socket I/O alike, ends in a Syscall6
	case under("runtime", "internal/runtime", "sync", "internal/sync"):
		return "runtime"
	case under("net", "vendor/golang.org/x/net"):
		return "net"
	case pkg == "encoding/json":
		return "json"
	}
	return "other"
}
