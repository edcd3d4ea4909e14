// Timing jitter. jitterFor's continuous model is a normal deviate
// j ~ N(0, sigma) with its negative tail folded to -j/2 (latencies have
// a floor), rounded to whole cycles as floor(j + 1/2). That rounded
// value takes each k >= 0 with a fixed probability for a given sigma,
// and sigma takes one value per contention level, so each level is a
// small discrete law. Sampling that law from a Walker alias table
// (Walker, ACM TOMS 3(3), 1977; built with Vose's method, IEEE TSE
// 17(9), 1991) costs one Uint64 per line access: no Log, no Sqrt, no
// rejection loop.
package sim

import (
	"math"
	"math/bits"
	"sync"

	"spybox/internal/arch"
)

// ModelVersion names the simulator's timing model. Any change that
// moves a simulated byte at a fixed seed — a new noise sampler, a
// latency constant, a replacement policy — must change it, so stores
// and caches shared by binaries of different versions never serve one
// model's result for another's.
const ModelVersion = "sim/2"

// jitterTable is the alias table of the jitter law for one sigma.
// Tables are immutable once built and shared by every machine.
type jitterTable []aliasCol

// aliasCol is one column of an alias table: a draw that lands in
// column i yields i when its coin falls below thresh, else alias.
type aliasCol struct {
	thresh uint64
	alias  uint32
}

// draw maps 64 uniform bits to a jitter value. The high word of u·n
// picks the column and the low word is the coin; for a given column
// the low word is uniform on [0, 2^64) to within n/2^64.
func (t jitterTable) draw(u uint64) arch.Cycles {
	i, coin := bits.Mul64(u, uint64(len(t)))
	c := &t[i]
	if coin < c.thresh {
		return arch.Cycles(i)
	}
	return arch.Cycles(c.alias)
}

// jitterTail is where a table's support ends: the first k whose
// remaining mass P(K >= k) is below 2^-53, half an ulp of 1.
const jitterTail = 0x1p-53

// upperQ is the standard normal upper tail Q(x) = P(Z > x).
func upperQ(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }

// jitterPMF returns P(K = k) for k = 0, 1, ... up to where the
// remaining mass drops below jitterTail, unnormalized. With a =
// max(0, k - 1/2) and b = k + 1/2, K = k when j falls in [a, b) or the
// folded -j/2 does:
//
//	P(k) = Q(a/σ) − Q(b/σ) + Q(2a/σ) − Q(2b/σ).
//
// sigma <= 0 is the noiseless law, K = 0.
func jitterPMF(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	var p []float64
	// qa, q2a are Q(a/σ) and Q(2a/σ) for the next k; their sum is the
	// mass at or beyond it. Each step's b is the next step's a.
	for qa, q2a := 0.5, 0.5; qa+q2a >= jitterTail; {
		b := float64(len(p)) + 0.5
		qb, q2b := upperQ(b/sigma), upperQ(2*b/sigma)
		p = append(p, qa-qb+q2a-q2b)
		qa, q2a = qb, q2b
	}
	return p
}

// newJitterTable builds the alias table of pmf, normalizing it first.
func newJitterTable(pmf []float64) jitterTable {
	n := len(pmf)
	var sum float64
	for _, p := range pmf {
		sum += p
	}
	// scaled[i] is column i's share of its own value; Vose's method
	// pairs each under-full column with an over-full donor.
	scaled := make([]float64, n)
	var small, large []int
	for i, p := range pmf {
		scaled[i] = p / sum * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	t := make(jitterTable, n)
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		// Rounding can leave a donor a hair below zero; its coin then
		// never comes up, which is what a zero share means.
		t[s] = aliasCol{thresh: uint64(max(scaled[s], 0) * 0x1p64), alias: uint32(l)}
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// What is left is full to within rounding: it keeps its own value.
	for _, i := range append(small, large...) {
		t[i] = aliasCol{thresh: math.MaxUint64, alias: uint32(i)}
	}
	return t
}

// jitterTables caches one table per sigma for the whole process, keyed
// by the sigma's bits.
//
//spylint:allow detrand a table is a pure function of its sigma; which caller builds it first cannot change it
var jitterTables struct {
	sync.Mutex
	bySigma map[uint64]jitterTable
}

// jitterTableFor returns the shared table for sigma, building it on
// first use.
func jitterTableFor(sigma float64) jitterTable {
	key := math.Float64bits(sigma)
	jitterTables.Lock()
	defer jitterTables.Unlock()
	t := jitterTables.bySigma[key]
	if t == nil {
		if jitterTables.bySigma == nil {
			jitterTables.bySigma = make(map[uint64]jitterTable)
		}
		t = newJitterTable(jitterPMF(sigma))
		jitterTables.bySigma[key] = t
	}
	return t
}

// growJitterLevels makes m.jitterLevels cover contention levels 0 ..
// maxOthers.
func (m *Machine) growJitterLevels(maxOthers int) {
	if m.cfg.noiseOff {
		return
	}
	lat := &m.cfg.prof.Lat
	for l := len(m.jitterLevels); l <= maxOthers; l++ {
		sigma := lat.JitterSigma + lat.ContentionSigmaPer*float64(l)
		m.jitterLevels = append(m.jitterLevels, jitterTableFor(sigma))
	}
}
