package victim

import (
	"math"
	"slices"
	"testing"

	"spybox/internal/arch"
	"spybox/internal/cudart"
	"spybox/internal/sim"
	"spybox/internal/xrand"
)

func TestSynthMNISTShape(t *testing.T) {
	ds := SynthMNIST(50, xrand.New(1))
	if len(ds.Images) != 50 || len(ds.Labels) != 50 {
		t.Fatalf("sizes %d/%d", len(ds.Images), len(ds.Labels))
	}
	for i, img := range ds.Images {
		if len(img) != ImgPixels {
			t.Fatalf("image %d has %d pixels", i, len(img))
		}
		for _, p := range img {
			if p < 0 || p > 1 {
				t.Fatalf("pixel %v out of range", p)
			}
		}
		if ds.Labels[i] < 0 || ds.Labels[i] > 9 {
			t.Fatalf("label %d out of range", ds.Labels[i])
		}
	}
}

func TestSynthMNISTDeterministic(t *testing.T) {
	a := SynthMNIST(10, xrand.New(7))
	b := SynthMNIST(10, xrand.New(7))
	for i := range a.Images {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ across identical seeds")
		}
		for p := range a.Images[i] {
			if a.Images[i][p] != b.Images[i][p] {
				t.Fatal("pixels differ across identical seeds")
			}
		}
	}
}

func TestPrototypesDistinct(t *testing.T) {
	// Every pair of digit prototypes must differ in enough pixels to
	// be separable.
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			pa, pb := prototype(a), prototype(b)
			diff := 0
			for i := range pa {
				if pa[i] != pb[i] {
					diff++
				}
			}
			if diff < 10 {
				t.Errorf("digits %d and %d differ in only %d pixels", a, b, diff)
			}
		}
	}
}

func TestMLPLearns(t *testing.T) {
	rng := xrand.New(3)
	net := NewMLP(32, rng.Split())
	train := SynthMNIST(300, rng.Split())
	test := SynthMNIST(100, rng.Split())
	before := net.Accuracy(test)
	var lastLoss float64
	for ep := 0; ep < 5; ep++ {
		lastLoss = 0
		for i := range train.Images {
			lastLoss += net.TrainSample(train.Images[i], train.Labels[i])
		}
		lastLoss /= float64(len(train.Images))
	}
	after := net.Accuracy(test)
	if after < 0.8 {
		t.Errorf("MLP test accuracy %.2f after training (was %.2f)", after, before)
	}
	if after <= before {
		t.Errorf("training did not improve accuracy: %.2f -> %.2f", before, after)
	}
	if lastLoss > 0.6 {
		t.Errorf("final loss %.2f too high", lastLoss)
	}
}

func TestMLPForwardIsDistribution(t *testing.T) {
	net := NewMLP(16, xrand.New(5))
	img := SynthMNIST(1, xrand.New(6)).Images[0]
	_, probs := net.Forward(img)
	var sum float64
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("prob %v out of range", p)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probs sum to %v", sum)
	}
}

func TestMLPVictimConfigValidation(t *testing.T) {
	m := sim.MustNewMachine(sim.Options{Seed: 9, NoiseOff: true})
	bad := []MLPVictimConfig{
		{Hidden: 0, Epochs: 1, Samples: 16, BatchSize: 8},
		{Hidden: 8, Epochs: 0, Samples: 16, BatchSize: 8},
		{Hidden: 8, Epochs: 1, Samples: 0, BatchSize: 8},
		{Hidden: 8, Epochs: 1, Samples: 16, BatchSize: 0},
	}
	for _, cfg := range bad {
		if _, err := NewMLPVictim(m, 0, 1, cfg); err == nil {
			t.Errorf("bad config accepted: %+v", cfg)
		}
	}
}

func TestMLPVictimTrafficScalesWithHidden(t *testing.T) {
	run := func(hidden int) uint64 {
		m := sim.MustNewMachine(sim.Options{Seed: 10, NoiseOff: true})
		cfg := MLPVictimConfig{Hidden: hidden, Epochs: 1, Samples: 32, BatchSize: 16, EpochGapOps: 0}
		v, err := NewMLPVictim(m, 0, 11, cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := false
		if err := v.Launch(&done); err != nil {
			t.Fatal(err)
		}
		m.Run()
		if !done {
			t.Fatal("victim did not finish")
		}
		h, miss, _ := m.Device(0).L2().Totals()
		return h + miss
	}
	small, big := run(32), run(256)
	if big <= small {
		t.Errorf("traffic did not scale with hidden width: h32=%d h256=%d", small, big)
	}
	if big < small*3 {
		t.Errorf("traffic scaling too weak: h32=%d h256=%d", small, big)
	}
}

func TestMLPVictimTrainsForReal(t *testing.T) {
	m := sim.MustNewMachine(sim.Options{Seed: 12, NoiseOff: true})
	cfg := MLPVictimConfig{Hidden: 32, Epochs: 3, Samples: 64, BatchSize: 16, EpochGapOps: 10}
	v, err := NewMLPVictim(m, 0, 13, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v.Train()
	if v.FinalLoss <= 0 || v.FinalLoss > 2.0 {
		t.Errorf("final loss %.3f implausible for 3 epochs", v.FinalLoss)
	}
	if acc := v.Net.Accuracy(v.Data); acc < 0.5 {
		t.Errorf("victim net only fits %.2f of its training data", acc)
	}
}

// TestMLPVictimTrafficIndependentOfTraining holds the split between
// Launch and Train: the monitored kernel's device traffic must not
// depend on whether, or how far, the host-side SGD has run, and Launch
// alone must not touch the weights.
func TestMLPVictimTrafficIndependentOfTraining(t *testing.T) {
	type outcome struct {
		l2, hbm []uint64    // per device: L2 hits, misses, evictions; HBM reads, row hits, bytes
		end     arch.Cycles // clock at which an idle observer kernel saw the victim finish
	}
	run := func(train bool) outcome {
		m := sim.MustNewMachine(sim.Options{Seed: 21})
		cfg := MLPVictimConfig{Hidden: 48, Epochs: 2, Samples: 48, BatchSize: 16, EpochGapOps: 200}
		v, err := NewMLPVictim(m, 0, 22, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w1, w2 := weightBits(v.Net.W1), weightBits(v.Net.W2)
		if train {
			v.Train()
			if v.FinalLoss <= 0 {
				t.Fatalf("Train left FinalLoss at %v", v.FinalLoss)
			}
		}
		done := false
		if err := v.Launch(&done); err != nil {
			t.Fatal(err)
		}
		// Launch exposes no clock, so an observer kernel reads it off:
		// it ticks one ALU op per event, issues no memory traffic, and
		// stops at its first event after the victim's last.
		obs, err := cudart.NewProcess(m, 0, 23)
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		err = obs.Launch("observer", 0, func(k *cudart.Kernel) {
			for !done {
				k.Busy(1)
				k.Yield()
			}
			out.end = k.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		if !done {
			t.Fatal("victim did not finish")
		}
		if !train {
			if v.FinalLoss != 0 {
				t.Errorf("Launch wrote FinalLoss %v", v.FinalLoss)
			}
			if !slices.Equal(w1, weightBits(v.Net.W1)) || !slices.Equal(w2, weightBits(v.Net.W2)) {
				t.Error("Launch changed the network's weights")
			}
		}
		for d := 0; d < m.NumGPUs(); d++ {
			dev := m.Device(arch.DeviceID(d))
			h, miss, ev := dev.L2().Totals()
			reads, rowHits, bytes := dev.HBM().Stats()
			out.l2 = append(out.l2, h, miss, ev)
			out.hbm = append(out.hbm, reads, rowHits, bytes)
		}
		return out
	}
	a, b := run(false), run(true)
	if !slices.Equal(a.l2, b.l2) {
		t.Errorf("L2 totals differ: launch only %v, trained first %v", a.l2, b.l2)
	}
	if !slices.Equal(a.hbm, b.hbm) {
		t.Errorf("HBM stats differ: launch only %v, trained first %v", a.hbm, b.hbm)
	}
	if a.end != b.end || a.end == 0 {
		t.Errorf("victim end clock: launch only %d, trained first %d", a.end, b.end)
	}
}

// weightBits flattens a weight matrix to its float bit patterns.
func weightBits(w [][]float64) []uint64 {
	var out []uint64
	for _, row := range w {
		for _, x := range row {
			out = append(out, math.Float64bits(x))
		}
	}
	return out
}
