package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"spybox/internal/arch"
	"spybox/internal/xrand"
)

// lawLevels are the contention levels the sampler law tests cover.
var lawLevels = []int{0, 1, 4, 16}

// levelSigma is jitterFor's sigma at a contention level on the
// default machine.
func levelSigma(level int) float64 {
	return arch.JitterSigma + arch.ContentionSigmaPer*float64(level)
}

// closedForm is P(K = k) of the folded, rounded normal, written out
// term by term from its definition: K = k when j ~ N(0, σ) falls in
// [a, b) or -j/2 does, with a = max(0, k - 1/2) and b = k + 1/2.
func closedForm(k int, sigma float64) float64 {
	q := func(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }
	a, b := math.Max(0, float64(k)-0.5), float64(k)+0.5
	return q(a/sigma) - q(b/sigma) + q(2*a/sigma) - q(2*b/sigma)
}

// tailMass is P(K >= k) for k >= 1.
func tailMass(k int, sigma float64) float64 {
	a := float64(k) - 0.5
	return 0.5*math.Erfc(a/sigma/math.Sqrt2) + 0.5*math.Erfc(2*a/sigma/math.Sqrt2)
}

// impliedPMF is the law a table's draws follow: a draw picks each
// column with probability 1/n, then the column's own value with its
// coin's probability and its alias otherwise.
func impliedPMF(t jitterTable) []float64 {
	n := len(t)
	p := make([]float64, n)
	for i, c := range t {
		own := float64(c.thresh) / 0x1p64 // MaxUint64 rounds to 1
		p[i] += own / float64(n)
		p[c.alias] += (1 - own) / float64(n)
	}
	return p
}

// TestJitterTableMatchesClosedForm checks each level's table against
// the closed form: the law it draws from matches the renormalized pmf
// to 1e-12, and its support ends at the first k whose tail mass is
// below 2^-53.
func TestJitterTableMatchesClosedForm(t *testing.T) {
	for _, level := range lawLevels {
		sigma := levelSigma(level)
		tab := jitterTableFor(sigma)
		n := len(tab)
		if n < 2 {
			t.Fatalf("level %d: support of %d values", level, n)
		}
		if got := tailMass(n, sigma); got >= 0x1p-53 {
			t.Errorf("level %d: support ends at %d but P(K >= %d) = %g >= 2^-53", level, n, n, got)
		}
		if got := tailMass(n-1, sigma); got < 0x1p-53 {
			t.Errorf("level %d: support runs to %d past P(K >= %d) = %g < 2^-53", level, n, n-1, got)
		}
		var sum float64
		for k := 0; k < n; k++ {
			sum += closedForm(k, sigma)
		}
		for k, got := range impliedPMF(tab) {
			if want := closedForm(k, sigma) / sum; math.Abs(got-want) > 1e-12 {
				t.Errorf("level %d: P(%d) = %.17g, closed form %.17g", level, k, got, want)
			}
		}
	}
}

// polarFold is the sampler the tables replaced: a polar-method normal
// deviate scaled by sigma, its negative tail folded to -j/2, rounded
// to whole cycles.
func polarFold(r *xrand.Source, sigma float64) int {
	j := r.Norm() * sigma
	if j < 0 {
		j = -j / 2
	}
	return int(j + 0.5)
}

// TestJitterTableMatchesPolarFold draws 10^6 values from each level's
// table and from the polar-method fold at fixed seeds, and requires a
// two-sample χ² homogeneity test not to reject at p = 0.001.
func TestJitterTableMatchesPolarFold(t *testing.T) {
	const draws = 1_000_000
	for _, level := range lawLevels {
		sigma := levelSigma(level)
		tab := jitterTableFor(sigma)
		tabCounts := make([]int, len(tab))
		polarCounts := make([]int, len(tab))
		tabSrc, polarSrc := xrand.New(uint64(101+level)), xrand.New(uint64(202+level))
		for i := 0; i < draws; i++ {
			tabCounts[tab.draw(tabSrc.Uint64())]++
			// The polar draw can land past the table's support only
			// with probability below 2^-53 per draw; fold it into the
			// last value, which the binning merges into the tail.
			polarCounts[min(polarFold(polarSrc, sigma), len(polarCounts)-1)]++
		}
		// Merge adjacent values until each bin holds at least 20 draws
		// from the two samples together, so χ² is a fair approximation.
		var stat float64
		bins := 0
		var a, b int
		for k := range tabCounts {
			a, b = a+tabCounts[k], b+polarCounts[k]
			if a+b >= 20 || k == len(tabCounts)-1 {
				if a+b > 0 {
					d := float64(a - b)
					stat += d * d / float64(a+b)
					bins++
				}
				a, b = 0, 0
			}
		}
		df := float64(bins - 1)
		// Wilson–Hilferty: the upper 0.001 point of χ²(df), z = 3.0902.
		h := 2 / (9 * df)
		crit := df * math.Pow(1-h+3.0902*math.Sqrt(h), 3)
		if stat > crit {
			t.Errorf("level %d (sigma %g): χ² = %.1f over %d bins exceeds the p = 0.001 point %.1f",
				level, sigma, stat, bins, crit)
		}
	}
}

// TestSpawnCoversContentionLevels checks that after N Spawns a machine
// holds a table for every level N workers can produce — N levels, but
// no more than one per event of the contention window plus level 0 —
// and that a run in which all N contend on one L2 never indexes past
// them.
func TestSpawnCoversContentionLevels(t *testing.T) {
	for _, n := range []int{1, 2, 8, 33, contentionWindow + 24} {
		m := MustNewMachine(Options{Seed: uint64(n)})
		pa := arch.MakePA(0, 0x40000)
		maxOthers := 0
		for i := 0; i < n; i++ {
			_, err := m.Spawn(0, NoOwner, fmt.Sprintf("w%d", i), 0, func(w *Worker) {
				for j := 0; j < 8; j++ {
					w.TouchCG(pa)
					maxOthers = max(maxOthers, m.lastTouch[0].others)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		levels := min(n, contentionWindow+1)
		if len(m.jitterLevels) < levels {
			t.Fatalf("%d workers spawned, %d jitter levels, want at least %d", n, len(m.jitterLevels), levels)
		}
		m.Run() // an access past the levels would panic here
		// A few dozen workers take turns well inside the window, so
		// each access sees every other worker: the top level is used.
		if n <= 33 && maxOthers != n-1 {
			t.Errorf("%d contending workers peaked at %d others, want %d", n, maxOthers, n-1)
		}
	}
}

// BenchmarkJitterDraw times one jitter draw, a Uint64 from the jitter
// stream plus the alias-table lookup, at contention levels 0 and 8.
// It must not allocate.
func BenchmarkJitterDraw(b *testing.B) {
	for _, level := range []int{0, 8} {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			tab := jitterTableFor(levelSigma(level))
			src := xrand.New(1)
			var sum arch.Cycles
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += tab.draw(src.Uint64())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
			runtime.KeepAlive(sum)
		})
	}
}
