// Package victim implements the workloads the paper spies on: the six
// CUDA-toolkit applications used for fingerprinting (Sec. V-A —
// vectoradd, histogram, blackscholes, matrix multiplication,
// quasirandom and Walsh transform) and the PyTorch-style MLP training
// victim (Sec. V-B).
//
// Each app is a real kernel against the cudart API whose address
// stream has the canonical structure of its namesake: streaming
// sweeps, hot lookup tables, tiled reuse, butterfly strides. Those
// structures — not the arithmetic — are what the memorygram captures,
// but the arithmetic is performed anyway (cheaply, host-side within
// the kernel body) so the workloads are genuine programs rather than
// synthetic tracers. The MLP victim is the exception: its SGD is far
// costlier than its traffic and is run apart from the kernel, by
// MLPVictim.Train.
package victim

import (
	"fmt"
	"math"

	"spybox/internal/arch"
	"spybox/internal/cudart"
	"spybox/internal/sim"
	"spybox/internal/xrand"
)

// Config scales the fingerprinting workloads.
type Config struct {
	// ArrayKB is the main working-set array size in KiB per buffer.
	ArrayKB int
	// Passes is how many times the app sweeps its working set.
	Passes int
	// ChunkDelay is the per-chunk compute cost in ALU ops. Real
	// kernels interleave arithmetic with memory; for the side-channel
	// experiments it also sets the ratio between victim sweep period
	// and spy probe period, which is what gives each app its visible
	// temporal structure in the memorygram.
	ChunkDelay int
}

// DefaultConfig suits the side-channel experiments: working sets a
// few times larger than the spy's monitored region, runs long enough
// to span the monitoring window.
func DefaultConfig() Config { return Config{ArrayKB: 512, Passes: 6, ChunkDelay: 512} }

func (c Config) lines() int { return c.ArrayKB * 1024 / arch.CacheLineSize }

// App is one launchable victim application.
type App struct {
	Name string
	Proc *cudart.Process
	// Stop, if non-nil, is polled between passes: when *Stop is true
	// the app finishes early. Side-channel harnesses point it at the
	// monitor's done flag so victims don't outlive the measurement.
	Stop *bool
	body func(k *cudart.Kernel, stopped func() bool)
}

// stopped reports whether the app was asked to wind down.
func (a *App) stopped() bool { return a.Stop != nil && *a.Stop }

// Launch starts the app's kernel; when the kernel finishes it sets
// *done (the side-channel monitor polls it via StopEarly).
func (a *App) Launch(done *bool) error {
	return a.Proc.Launch(a.Name, 0, func(k *cudart.Kernel) {
		if done != nil {
			defer func() { *done = true }()
		}
		a.body(k, a.stopped)
	})
}

// mustMalloc allocates or panics; victims allocate at construction
// where errors indicate misconfiguration, not runtime conditions.
func mustMalloc(p *cudart.Process, size uint64) arch.VA {
	va, err := p.Malloc(size)
	if err != nil {
		panic(fmt.Sprintf("victim: %v", err))
	}
	return va
}

// NewVectorAdd builds the vectoradd victim: C[i] = A[i] + B[i], three
// equal arrays streamed in lockstep. Its memorygram is a uniform
// triple-density sweep.
func NewVectorAdd(m *sim.Machine, dev arch.DeviceID, seed uint64, cfg Config) *App {
	p := cudart.MustNewProcess(m, dev, seed)
	n := cfg.lines()
	size := uint64(cfg.ArrayKB) * 1024
	a, b, c := mustMalloc(p, size), mustMalloc(p, size), mustMalloc(p, size)
	return &App{Name: "vectoradd", Proc: p, body: func(k *cudart.Kernel, stopped func() bool) {
		const chunk = 64
		var acc float64
		for pass := 0; pass < cfg.Passes && !stopped(); pass++ {
			for off := 0; off < n; off += chunk {
				cnt := min(chunk, n-off)
				base := arch.VA(off * arch.CacheLineSize)
				k.Stream(a+base, cnt, arch.CacheLineSize)
				k.Stream(b+base, cnt, arch.CacheLineSize)
				k.Stream(c+base, cnt, arch.CacheLineSize)
				acc += float64(off) + 1 // the add itself
				k.Busy(cnt + cfg.ChunkDelay)
			}
		}
		_ = acc
	}}
}

// NewHistogram builds the histogram victim: a large input stream
// scattering increments into a small hot bin table. The memorygram
// shows a full-width sweep plus a persistent bright band at the bins.
func NewHistogram(m *sim.Machine, dev arch.DeviceID, seed uint64, cfg Config) *App {
	p := cudart.MustNewProcess(m, dev, seed)
	n := cfg.lines()
	input := mustMalloc(p, uint64(cfg.ArrayKB)*1024)
	const binLines = 8 // 256 x 4B bins = 1 KB = 8 lines, red hot
	bins := mustMalloc(p, binLines*arch.CacheLineSize)
	rng := xrand.New(seed ^ 0xbeef)
	return &App{Name: "histogram", Proc: p, body: func(k *cudart.Kernel, stopped func() bool) {
		const chunk = 64
		for pass := 0; pass < cfg.Passes && !stopped(); pass++ {
			for off := 0; off < n; off += chunk {
				cnt := min(chunk, n-off)
				k.Stream(input+arch.VA(off*arch.CacheLineSize), cnt, arch.CacheLineSize)
				// Scatter increments into bins: every chunk hits
				// several bin lines (conflict-heavy, like atomics).
				for h := 0; h < 12; h++ {
					k.TouchCG(bins + arch.VA(rng.Intn(binLines)*arch.CacheLineSize))
				}
				k.Busy(cnt + cfg.ChunkDelay)
			}
		}
	}}
}

// NewBlackScholes builds the Black-Scholes option pricer: five input
// arrays (spot, strike, rate, volatility, expiry) and two outputs
// (call, put) streamed per pass, with heavy per-element math. Seven
// interleaved sweeps at lower temporal rate distinguish it from
// vectoradd.
func NewBlackScholes(m *sim.Machine, dev arch.DeviceID, seed uint64, cfg Config) *App {
	p := cudart.MustNewProcess(m, dev, seed)
	n := cfg.lines()
	size := uint64(cfg.ArrayKB) * 1024
	bufs := make([]arch.VA, 7)
	for i := range bufs {
		bufs[i] = mustMalloc(p, size)
	}
	return &App{Name: "blackscholes", Proc: p, body: func(k *cudart.Kernel, stopped func() bool) {
		const chunk = 32
		var price float64
		for pass := 0; pass < cfg.Passes && !stopped(); pass++ {
			for off := 0; off < n; off += chunk {
				cnt := min(chunk, n-off)
				base := arch.VA(off * arch.CacheLineSize)
				for _, b := range bufs {
					k.Stream(b+base, cnt, arch.CacheLineSize)
				}
				// CND evaluations dominate BS compute.
				s := 100 + float64(off%37)
				d1 := (math.Log(s/95) + 0.06) / 0.23
				price += s*cnd(d1) - 95*cnd(d1-0.23)
				k.BusyHeavy(cnt / 2)
				k.Busy(cfg.ChunkDelay)
			}
		}
		_ = price
	}}
}

// cnd is the cumulative normal distribution (Hull's polynomial
// approximation), the Black-Scholes inner loop.
func cnd(x float64) float64 {
	l := math.Abs(x)
	kk := 1 / (1 + 0.2316419*l)
	w := 1 - 1/math.Sqrt(2*math.Pi)*math.Exp(-l*l/2)*
		(0.31938153*kk-0.356563782*kk*kk+1.781477937*kk*kk*kk-
			1.821255978*kk*kk*kk*kk+1.330274429*kk*kk*kk*kk*kk)
	if x < 0 {
		return 1 - w
	}
	return w
}

// NewMatMul builds the tiled matrix-multiply victim. Per output tile
// row it re-streams a block of A while sweeping all of B — strong
// temporal reuse that shows up as repeating bright bands.
func NewMatMul(m *sim.Machine, dev arch.DeviceID, seed uint64, cfg Config) *App {
	p := cudart.MustNewProcess(m, dev, seed)
	n := cfg.lines()
	size := uint64(cfg.ArrayKB) * 1024
	a, b, c := mustMalloc(p, size), mustMalloc(p, size), mustMalloc(p, size)
	return &App{Name: "matmul", Proc: p, body: func(k *cudart.Kernel, stopped func() bool) {
		tiles := 8
		tileLines := n / tiles
		var dot float64
		for pass := 0; pass < cfg.Passes && !stopped(); pass++ {
			for ti := 0; ti < tiles; ti++ {
				aBase := a + arch.VA(ti*tileLines*arch.CacheLineSize)
				for tj := 0; tj < tiles; tj++ {
					// Re-stream A's tile for every B tile: reuse.
					k.Stream(aBase, tileLines, arch.CacheLineSize)
					k.Stream(b+arch.VA(tj*tileLines*arch.CacheLineSize), tileLines, arch.CacheLineSize)
					dot += float64(ti*tj) * 1.5
					k.Busy(tileLines + cfg.ChunkDelay*4)
				}
				k.Stream(c+arch.VA(ti*tileLines*arch.CacheLineSize), tileLines, arch.CacheLineSize)
			}
		}
		_ = dot
	}}
}

// NewQuasiRandom builds the quasirandom (Niederreiter/Sobol-style)
// generator: a tiny hot direction table driving a long write-only
// output stream. Real direction numbers are computed and used.
func NewQuasiRandom(m *sim.Machine, dev arch.DeviceID, seed uint64, cfg Config) *App {
	p := cudart.MustNewProcess(m, dev, seed)
	n := cfg.lines()
	out := mustMalloc(p, uint64(cfg.ArrayKB)*1024)
	const dirLines = 4 // 32 direction words: 2 lines, padded
	dirs := mustMalloc(p, dirLines*arch.CacheLineSize)
	// Sobol dimension-1 direction numbers: v_j = 1 << (31-j).
	var v [32]uint32
	for j := range v {
		v[j] = 1 << (31 - j)
	}
	return &App{Name: "quasirandom", Proc: p, body: func(k *cudart.Kernel, stopped func() bool) {
		const chunk = 64
		var x uint32
		for pass := 0; pass < cfg.Passes && !stopped(); pass++ {
			for off := 0; off < n; off += chunk {
				cnt := min(chunk, n-off)
				// Gray-code Sobol step per element; table stays hot.
				for i := 0; i < 4; i++ {
					k.TouchCG(dirs + arch.VA((i%dirLines)*arch.CacheLineSize))
				}
				for i := 0; i < cnt; i++ {
					x ^= v[trailingOnes(uint32(off+i))%32]
				}
				k.Stream(out+arch.VA(off*arch.CacheLineSize), cnt, arch.CacheLineSize)
				k.Busy(cnt/2 + cfg.ChunkDelay)
			}
		}
		_ = x
	}}
}

// trailingOnes counts trailing one bits (Gray-code Sobol index).
func trailingOnes(x uint32) int {
	n := 0
	for x&1 == 1 {
		n++
		x >>= 1
	}
	return n
}

// NewWalshTransform builds the fast Walsh-Hadamard transform victim:
// log2(N) butterfly passes over one array with doubling strides. Its
// repeated full-array re-sweeps at shifting phase are unmistakable in
// the memorygram.
func NewWalshTransform(m *sim.Machine, dev arch.DeviceID, seed uint64, cfg Config) *App {
	p := cudart.MustNewProcess(m, dev, seed)
	n := cfg.lines()
	data := mustMalloc(p, uint64(cfg.ArrayKB)*1024)
	stages := 0
	for 1<<stages < n {
		stages++
	}
	return &App{Name: "walshtransform", Proc: p, body: func(k *cudart.Kernel, stopped func() bool) {
		const chunk = 64
		var butterfly float64
		for pass := 0; pass < cfg.Passes && !stopped(); pass++ {
			for st := 0; st < stages; st++ {
				// One butterfly stage touches every line; model the
				// pair accesses as two interleaved half-sweeps.
				half := n / 2
				for off := 0; off < half; off += chunk {
					cnt := min(chunk, half-off)
					k.Stream(data+arch.VA(off*arch.CacheLineSize), cnt, arch.CacheLineSize)
					k.Stream(data+arch.VA((off+half)*arch.CacheLineSize), cnt, arch.CacheLineSize)
					butterfly += float64(st ^ off)
					k.Busy(cnt + cfg.ChunkDelay)
				}
			}
		}
		_ = butterfly
	}}
}

// min returns the smaller int (Go 1.21 builtin shadow-safe helper for
// older toolchains in CI).
func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// AppNames lists the six fingerprinting victims in canonical order,
// matching the paper's Fig. 12 classes.
var AppNames = []string{
	"vectoradd", "histogram", "blackscholes", "matmul", "quasirandom", "walshtransform",
}

// NewApp constructs a victim by name.
func NewApp(name string, m *sim.Machine, dev arch.DeviceID, seed uint64, cfg Config) (*App, error) {
	switch name {
	case "vectoradd":
		return NewVectorAdd(m, dev, seed, cfg), nil
	case "histogram":
		return NewHistogram(m, dev, seed, cfg), nil
	case "blackscholes":
		return NewBlackScholes(m, dev, seed, cfg), nil
	case "matmul":
		return NewMatMul(m, dev, seed, cfg), nil
	case "quasirandom":
		return NewQuasiRandom(m, dev, seed, cfg), nil
	case "walshtransform":
		return NewWalshTransform(m, dev, seed, cfg), nil
	default:
		return nil, fmt.Errorf("victim: unknown app %q", name)
	}
}
