package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"spybox/internal/xrand"
)

func TestMeanBasics(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); got != c.want {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); math.Abs(got-5) > 1e-12 {
		t.Errorf("Percentile(50) = %v, want 5", got)
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	for name, f := range map[string]func(){
		"Min": func() { Min(nil) },
		"Max": func() { Max(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Mean != 5.5 || s.Min != 1 || s.Max != 10 {
		t.Errorf("bad summary: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("Summarize(nil).N = %d", got.N)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.Add(-1)   // under
	h.Add(0)    // bin 0
	h.Add(9.99) // bin 0
	h.Add(10)   // bin 1
	h.Add(99.9) // bin 9
	h.Add(100)  // over
	h.Add(150)  // over
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under/over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[9] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d, want 4", h.Total())
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	if got := h.BinCenter(0); got != 5 {
		t.Errorf("BinCenter(0) = %v, want 5", got)
	}
	if got := h.BinCenter(9); got != 95 {
		t.Errorf("BinCenter(9) = %v, want 95", got)
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(10, 10, 5)
}

func TestHistogramModes(t *testing.T) {
	h := NewHistogram(0, 100, 20)
	// Two clear clusters around 20 and 80.
	for i := 0; i < 50; i++ {
		h.Add(20)
		h.Add(80)
	}
	h.Add(50)
	modes := h.Modes(10)
	if len(modes) != 2 {
		t.Fatalf("found %d modes (%v), want 2", len(modes), modes)
	}
	if math.Abs(modes[0]-22.5) > 5 || math.Abs(modes[1]-82.5) > 5 {
		t.Errorf("mode centers %v not near 20/80", modes)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{1, 1, 5})
	out := h.Render(40)
	if out == "" || out == "(empty histogram)\n" {
		t.Errorf("unexpected render output: %q", out)
	}
	empty := NewHistogram(0, 10, 5)
	if empty.Render(40) != "(empty histogram)\n" {
		t.Error("empty histogram render mismatch")
	}
}

func TestKMeans1DFourClusters(t *testing.T) {
	// Emulates the Fig. 4 scenario: four well-separated timing
	// clusters; k-means must find all four centers.
	rng := xrand.New(99)
	var xs []float64
	trueCenters := []float64{268, 440, 630, 950}
	for _, c := range trueCenters {
		for i := 0; i < 200; i++ {
			xs = append(xs, c+rng.Norm()*8)
		}
	}
	centers, assign := KMeans1D(xs, 4)
	if len(centers) != 4 {
		t.Fatalf("got %d centers", len(centers))
	}
	for i, want := range trueCenters {
		if math.Abs(centers[i]-want) > 15 {
			t.Errorf("center %d = %v, want near %v", i, centers[i], want)
		}
	}
	// Assignments must be consistent with sorted center order.
	for i, x := range xs {
		c := assign[i]
		for other := range centers {
			if math.Abs(x-centers[other]) < math.Abs(x-centers[c])-1e-9 {
				t.Fatalf("sample %v assigned to %d but %d is closer", x, c, other)
			}
		}
	}
}

func TestKMeans1DEdgeCases(t *testing.T) {
	if c, a := KMeans1D(nil, 3); c != nil || a != nil {
		t.Error("empty input should return nil")
	}
	c, _ := KMeans1D([]float64{5, 5, 5}, 2)
	if len(c) != 2 {
		t.Errorf("k capped incorrectly: %v", c)
	}
	c, a := KMeans1D([]float64{1, 2}, 5)
	if len(c) != 2 || len(a) != 2 {
		t.Errorf("k > n not capped: centers=%v assign=%v", c, a)
	}
}

func TestClusterGaps(t *testing.T) {
	gaps := ClusterGaps([]float64{268, 440, 630, 950})
	want := []float64{354, 535, 790}
	if !reflect.DeepEqual(gaps, want) {
		t.Errorf("gaps = %v, want %v", gaps, want)
	}
	if ClusterGaps([]float64{1}) != nil {
		t.Error("single center should have no gaps")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax(nil) != -1 || ArgMaxInt(nil) != -1 {
		t.Error("empty ArgMax should be -1")
	}
	if got := ArgMax([]float64{1, 5, 3}); got != 1 {
		t.Errorf("ArgMax = %d, want 1", got)
	}
	if got := ArgMaxInt([]int{7, 2, 9, 9}); got != 2 {
		t.Errorf("ArgMaxInt = %d, want 2 (first max)", got)
	}
}

func TestMeanInt(t *testing.T) {
	if got := MeanInt([]int{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("MeanInt = %v", got)
	}
	if MeanInt(nil) != 0 {
		t.Error("MeanInt(nil) != 0")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	rng := xrand.New(4)
	f := func(seed uint16) bool {
		r := xrand.New(uint64(seed))
		n := r.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*1000 - 500
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-9 || v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram conserves samples (in-range + under + over).
func TestHistogramConservationProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := xrand.New(uint64(seed))
		h := NewHistogram(-100, 100, 13)
		n := r.Intn(500) + 1
		for i := 0; i < n; i++ {
			h.Add(r.Float64()*400 - 200)
		}
		return h.Total()+h.Under+h.Over == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
