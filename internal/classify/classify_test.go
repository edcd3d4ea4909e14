package classify

import (
	"testing"

	"spybox/internal/xrand"
)

// synthetic blobs: class c centered at unit vector e_c with noise.
func blobs(n, classes, dim int, noise float64, rng *xrand.Source) []Sample {
	var out []Sample
	for i := 0; i < n; i++ {
		c := i % classes
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Norm() * noise
		}
		x[c%dim] += 1
		out = append(out, Sample{X: x, Y: c})
	}
	return out
}

func TestSoftmaxSeparatesBlobs(t *testing.T) {
	rng := xrand.New(1)
	data := blobs(120, 4, 10, 0.1, rng)
	train, _, test := Split(data, 0.6, 0, rng)
	clf, err := TrainSoftmax(train, 4, DefaultSoftmaxConfig(), rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	conf := Evaluate(clf, test, []string{"a", "b", "c", "d"})
	if acc := conf.Accuracy(); acc < 0.95 {
		t.Fatalf("softmax accuracy %.2f on separable blobs", acc)
	}
}

func TestSoftmaxTrainAccuracy(t *testing.T) {
	rng := xrand.New(2)
	data := blobs(24, 6, 432, 0.05, rng)
	clf, err := TrainSoftmax(data, 6, DefaultSoftmaxConfig(), rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	conf := Evaluate(clf, data, []string{"a", "b", "c", "d", "e", "f"})
	if acc := conf.Accuracy(); acc < 0.99 {
		t.Fatalf("softmax cannot even fit 24 training samples: %.2f", acc)
	}
}

func TestSoftmaxValidation(t *testing.T) {
	if _, err := TrainSoftmax(nil, 2, SoftmaxConfig{}, xrand.New(1)); err == nil {
		t.Error("empty training set accepted")
	}
	bad := []Sample{{X: []float64{1}, Y: 5}}
	if _, err := TrainSoftmax(bad, 2, SoftmaxConfig{}, xrand.New(1)); err == nil {
		t.Error("out-of-range label accepted")
	}
	ragged := []Sample{{X: []float64{1, 2}, Y: 0}, {X: []float64{1}, Y: 1}}
	if _, err := TrainSoftmax(ragged, 2, SoftmaxConfig{}, xrand.New(1)); err == nil {
		t.Error("ragged dims accepted")
	}
}

func TestKNN(t *testing.T) {
	rng := xrand.New(3)
	data := blobs(60, 3, 8, 0.05, rng)
	train, _, test := Split(data, 0.7, 0, rng)
	knn, err := NewKNN(3, train)
	if err != nil {
		t.Fatal(err)
	}
	conf := Evaluate(knn, test, []string{"a", "b", "c"})
	if acc := conf.Accuracy(); acc < 0.9 {
		t.Fatalf("kNN accuracy %.2f", acc)
	}
	if _, err := NewKNN(0, train); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewKNN(1, nil); err == nil {
		t.Error("empty train accepted")
	}
	if _, err := NewKNN(1, []Sample{{X: []float64{0}, Y: -1}}); err == nil {
		t.Error("negative label accepted")
	}
	// A tied vote goes to the smallest class, whatever the order.
	tied, err := NewKNN(2, []Sample{{X: []float64{1}, Y: 4}, {X: []float64{-1}, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := tied.Predict([]float64{0}); got != 2 {
		t.Errorf("tied vote predicted class %d, want 2", got)
	}
}

func TestSplitFractions(t *testing.T) {
	rng := xrand.New(4)
	data := blobs(100, 2, 4, 0.1, rng)
	train, val, test := Split(data, 0.5, 0.2, rng)
	if len(train) != 50 || len(val) != 20 || len(test) != 30 {
		t.Fatalf("split sizes %d/%d/%d", len(train), len(val), len(test))
	}
	defer func() {
		if recover() == nil {
			t.Error("bad fractions accepted")
		}
	}()
	Split(data, 0.9, 0.2, rng)
}

func TestConfusionAccounting(t *testing.T) {
	c := &Confusion{M: [][]int{{3, 1}, {0, 4}}, Names: []string{"x", "y"}}
	if acc := c.Accuracy(); acc != 7.0/8 {
		t.Errorf("accuracy %v", acc)
	}
	if ca := c.ClassAccuracy(0); ca != 0.75 {
		t.Errorf("class accuracy %v", ca)
	}
	if c.String() == "" {
		t.Error("empty confusion string")
	}
	empty := &Confusion{M: [][]int{{0}}, Names: []string{"x"}}
	if empty.Accuracy() != 0 || empty.ClassAccuracy(0) != 0 {
		t.Error("empty confusion should be 0")
	}
}

func TestNeuralSeparatesBlobs(t *testing.T) {
	rng := xrand.New(21)
	data := blobs(180, 6, 40, 0.15, rng)
	train, _, test := Split(data, 0.6, 0, rng)
	clf, err := TrainNeural(train, 6, DefaultNeuralConfig(), rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	conf := Evaluate(clf, test, []string{"a", "b", "c", "d", "e", "f"})
	if acc := conf.Accuracy(); acc < 0.9 {
		t.Fatalf("neural accuracy %.2f on separable blobs", acc)
	}
}

func TestNeuralValidation(t *testing.T) {
	if _, err := TrainNeural(nil, 2, NeuralConfig{}, xrand.New(1)); err == nil {
		t.Error("empty training set accepted")
	}
	bad := []Sample{{X: []float64{1}, Y: 7}}
	if _, err := TrainNeural(bad, 2, NeuralConfig{}, xrand.New(1)); err == nil {
		t.Error("bad label accepted")
	}
}
