// Package classify provides the fingerprinting classifier of Sec. V-A.
// The paper trains an image classifier over memorygram pictures; here
// the same role is played by multinomial logistic regression (softmax)
// over downsampled memorygram images, trained from scratch with SGD,
// plus a k-nearest-neighbour baseline. Both are stdlib-only.
package classify

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"spybox/internal/xrand"
)

// Sample is one labelled feature vector (a flattened memorygram
// image and its victim-application class).
type Sample struct {
	X []float64
	Y int
}

// Split partitions samples into train/validation/test sets by the
// given fractions (test receives the remainder), shuffling with rng.
// Mirrors the paper's 150/150/1200-per-class split methodology.
func Split(samples []Sample, trainFrac, valFrac float64, rng *xrand.Source) (train, val, test []Sample) {
	if trainFrac < 0 || valFrac < 0 || trainFrac+valFrac > 1 {
		panic("classify: bad split fractions")
	}
	idx := rng.Perm(len(samples))
	nTrain := int(trainFrac * float64(len(samples)))
	nVal := int(valFrac * float64(len(samples)))
	for i, id := range idx {
		switch {
		case i < nTrain:
			train = append(train, samples[id])
		case i < nTrain+nVal:
			val = append(val, samples[id])
		default:
			test = append(test, samples[id])
		}
	}
	return train, val, test
}

// Predictor is anything that classifies a feature vector.
type Predictor interface {
	Predict(x []float64) int
}

// Softmax is multinomial logistic regression with a bias term.
type Softmax struct {
	Classes int
	Dim     int
	W       [][]float64 // [Classes][Dim+1], last column is bias
}

// SoftmaxConfig controls training.
type SoftmaxConfig struct {
	Epochs int
	LR     float64
	L2     float64 // weight decay
}

// DefaultSoftmaxConfig works well for 32x32 memorygram images.
func DefaultSoftmaxConfig() SoftmaxConfig {
	return SoftmaxConfig{Epochs: 60, LR: 0.08, L2: 1e-4}
}

// TrainSoftmax fits a softmax classifier with SGD over shuffled
// epochs. All samples must share the dimensionality of the first.
func TrainSoftmax(train []Sample, classes int, cfg SoftmaxConfig, rng *xrand.Source) (*Softmax, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("classify: empty training set")
	}
	dim := len(train[0].X)
	for i, s := range train {
		if len(s.X) != dim {
			return nil, fmt.Errorf("classify: sample %d has dim %d, want %d", i, len(s.X), dim)
		}
		if s.Y < 0 || s.Y >= classes {
			return nil, fmt.Errorf("classify: sample %d has label %d outside [0,%d)", i, s.Y, classes)
		}
	}
	m := &Softmax{Classes: classes, Dim: dim, W: make([][]float64, classes)}
	for c := range m.W {
		m.W[c] = make([]float64, dim+1)
	}
	if cfg.Epochs <= 0 {
		cfg = DefaultSoftmaxConfig()
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		order := rng.Perm(len(train))
		for _, i := range order {
			s := train[i]
			probs := m.probs(s.X)
			for c := 0; c < classes; c++ {
				g := probs[c]
				if c == s.Y {
					g--
				}
				w := m.W[c]
				step := cfg.LR * g
				for d, v := range s.X {
					w[d] -= step*v + cfg.LR*cfg.L2*w[d]
				}
				w[dim] -= step
			}
		}
	}
	return m, nil
}

// probs returns class probabilities for x.
func (m *Softmax) probs(x []float64) []float64 {
	logits := make([]float64, m.Classes)
	maxL := math.Inf(-1)
	for c, w := range m.W {
		s := w[m.Dim]
		for d, v := range x {
			s += w[d] * v
		}
		logits[c] = s
		if s > maxL {
			maxL = s
		}
	}
	var z float64
	for c := range logits {
		logits[c] = math.Exp(logits[c] - maxL)
		z += logits[c]
	}
	for c := range logits {
		logits[c] /= z
	}
	return logits
}

// Predict returns the most likely class for x.
func (m *Softmax) Predict(x []float64) int {
	probs := m.probs(x)
	best := 0
	for c, p := range probs {
		if p > probs[best] {
			best = c
		}
	}
	return best
}

// KNN is a k-nearest-neighbour classifier over Euclidean distance —
// the baseline the softmax model is compared against.
type KNN struct {
	K    int
	Data []Sample
}

// NewKNN stores the training data. k must be positive and every label
// non-negative (Predict tallies votes in a slice indexed by class).
func NewKNN(k int, train []Sample) (*KNN, error) {
	if k <= 0 || len(train) == 0 {
		return nil, fmt.Errorf("classify: bad kNN parameters (k=%d, n=%d)", k, len(train))
	}
	for i, s := range train {
		if s.Y < 0 {
			return nil, fmt.Errorf("classify: sample %d has negative label %d", i, s.Y)
		}
	}
	return &KNN{K: k, Data: train}, nil
}

// Predict votes among the k nearest training samples.
func (kn *KNN) Predict(x []float64) int {
	type nd struct {
		d float64
		y int
	}
	ds := make([]nd, len(kn.Data))
	for i, s := range kn.Data {
		var d float64
		for j, v := range s.X {
			diff := v - x[j]
			d += diff * diff
		}
		ds[i] = nd{d, s.Y}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].d < ds[b].d })
	k := kn.K
	if k > len(ds) {
		k = len(ds)
	}
	maxY := 0
	for _, n := range ds[:k] {
		maxY = max(maxY, n.y)
	}
	votes := make([]int, maxY+1)
	for _, n := range ds[:k] {
		votes[n.y]++
	}
	// Ascending scan, strictly greater wins: ties go to the smallest
	// class.
	best, bestN := -1, 0
	for y, n := range votes {
		if n > bestN {
			best, bestN = y, n
		}
	}
	return best
}

// Confusion is a confusion matrix: M[actual][predicted].
type Confusion struct {
	M     [][]int
	Names []string
}

// Evaluate runs the predictor over test data, producing the confusion
// matrix (Fig. 12).
func Evaluate(p Predictor, test []Sample, classNames []string) *Confusion {
	n := len(classNames)
	c := &Confusion{M: make([][]int, n), Names: classNames}
	for i := range c.M {
		c.M[i] = make([]int, n)
	}
	for _, s := range test {
		pred := p.Predict(s.X)
		if s.Y >= 0 && s.Y < n && pred >= 0 && pred < n {
			c.M[s.Y][pred]++
		}
	}
	return c
}

// Accuracy is the overall fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	correct, total := 0, 0
	for i, row := range c.M {
		for j, v := range row {
			total += v
			if i == j {
				correct += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// ClassAccuracy is per-class recall.
func (c *Confusion) ClassAccuracy(class int) float64 {
	total := 0
	for _, v := range c.M[class] {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(c.M[class][class]) / float64(total)
}

// String renders the matrix with class names, like Fig. 12.
func (c *Confusion) String() string {
	var b strings.Builder
	width := 6
	for _, n := range c.Names {
		if len(n) > width {
			width = len(n)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+1, "")
	for _, n := range c.Names {
		fmt.Fprintf(&b, "%*s", width+1, n)
	}
	b.WriteByte('\n')
	for i, row := range c.M {
		fmt.Fprintf(&b, "%-*s", width+1, c.Names[i])
		for _, v := range row {
			fmt.Fprintf(&b, "%*d", width+1, v)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "overall accuracy: %.2f%%\n", 100*c.Accuracy())
	return b.String()
}
