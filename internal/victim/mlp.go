// The deep-learning victim (Sec. V-B): a one-hidden-layer MLP trained
// by SGD on the synthetic MNIST data. Its per-batch weight and
// activation traffic is issued against the simulated GPU by Launch;
// the host-side SGD that fits the weights is run by Train. The spy
// sees only the traffic, whose sizes and order do not depend on the
// weight values, so the two are independent. The paper's Table II
// statistic — average L2 misses growing with hidden width — emerges
// because wider layers move proportionally more weight bytes per
// batch; Fig. 15's visible epochs come from the quiet evaluation pause
// between training epochs.
package victim

import (
	"fmt"
	"math"

	"spybox/internal/arch"
	"spybox/internal/cudart"
	"spybox/internal/sim"
	"spybox/internal/xrand"
)

// MLP is a 784-H-10 perceptron with sigmoid hidden units and a
// softmax output, trained with plain SGD. It is a real network:
// TrainSample (and MLPVictim.Train, which loops it over the victim's
// data) genuinely fits the synthetic digits.
type MLP struct {
	Hidden int
	W1     [][]float64 // [Hidden][ImgPixels]
	B1     []float64
	W2     [][]float64 // [10][Hidden]
	B2     []float64
	LR     float64
}

// NewMLP initializes a network with Xavier-ish random weights.
func NewMLP(hidden int, rng *xrand.Source) *MLP {
	n := &MLP{Hidden: hidden, LR: 0.15}
	scale1 := 1 / math.Sqrt(ImgPixels)
	n.W1 = make([][]float64, hidden)
	n.B1 = make([]float64, hidden)
	for h := range n.W1 {
		n.W1[h] = make([]float64, ImgPixels)
		for i := range n.W1[h] {
			n.W1[h][i] = rng.Norm() * scale1
		}
	}
	scale2 := 1 / math.Sqrt(float64(hidden))
	n.W2 = make([][]float64, 10)
	n.B2 = make([]float64, 10)
	for o := range n.W2 {
		n.W2[o] = make([]float64, hidden)
		for h := range n.W2[o] {
			n.W2[o][h] = rng.Norm() * scale2
		}
	}
	return n
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward runs one sample, returning hidden activations and softmax
// output probabilities.
func (n *MLP) Forward(img []float64) (hidden, probs []float64) {
	hidden = make([]float64, n.Hidden)
	for h := range hidden {
		s := n.B1[h]
		w := n.W1[h]
		for i, v := range img {
			s += w[i] * v
		}
		hidden[h] = sigmoid(s)
	}
	logits := make([]float64, 10)
	maxL := math.Inf(-1)
	for o := range logits {
		s := n.B2[o]
		w := n.W2[o]
		for h, v := range hidden {
			s += w[h] * v
		}
		logits[o] = s
		if s > maxL {
			maxL = s
		}
	}
	probs = make([]float64, 10)
	var z float64
	for o, l := range logits {
		probs[o] = math.Exp(l - maxL)
		z += probs[o]
	}
	for o := range probs {
		probs[o] /= z
	}
	return hidden, probs
}

// TrainSample performs one SGD step and returns the cross-entropy
// loss for the sample.
func (n *MLP) TrainSample(img []float64, label int) float64 {
	hidden, probs := n.Forward(img)
	loss := -math.Log(math.Max(probs[label], 1e-12))

	// Output layer gradient: dL/dlogit_o = p_o - 1{o==label}.
	dOut := make([]float64, 10)
	for o := range dOut {
		dOut[o] = probs[o]
		if o == label {
			dOut[o]--
		}
	}
	// Hidden gradient through W2.
	dHid := make([]float64, n.Hidden)
	for o, g := range dOut {
		w := n.W2[o]
		for h := range w {
			dHid[h] += g * w[h]
		}
	}
	for h := range dHid {
		dHid[h] *= hidden[h] * (1 - hidden[h]) // sigmoid'
	}
	// Updates.
	for o, g := range dOut {
		w := n.W2[o]
		for h := range w {
			w[h] -= n.LR * g * hidden[h]
		}
		n.B2[o] -= n.LR * g
	}
	for h, g := range dHid {
		if g == 0 {
			continue
		}
		w := n.W1[h]
		step := n.LR * g
		for i, v := range img {
			w[i] -= step * v
		}
		n.B1[h] -= n.LR * g
	}
	return loss
}

// Accuracy evaluates classification accuracy on a dataset.
func (n *MLP) Accuracy(ds *Dataset) float64 {
	correct := 0
	for i, img := range ds.Images {
		_, probs := n.Forward(img)
		best := 0
		for o, p := range probs {
			if p > probs[best] {
				best = o
			}
		}
		if best == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.Images))
}

// MLPVictimConfig sizes the training victim.
type MLPVictimConfig struct {
	Hidden    int // hidden-layer width (the secret Table II recovers)
	Epochs    int // full passes over the training set (Fig. 15 counts these)
	Samples   int // training-set size
	BatchSize int // samples per device batch
	// EpochGapOps is the heavy-op count of the quiet evaluation pause
	// between epochs, which makes epoch boundaries visible (Fig. 15).
	EpochGapOps int
}

// MLPVictim couples the real network with its device-side buffers.
// Launch issues the training traffic; Train runs the SGD itself.
type MLPVictim struct {
	Net  *MLP
	Proc *cudart.Process
	Cfg  MLPVictimConfig
	Data *Dataset

	inputBuf arch.VA // one batch of images
	w1Buf    arch.VA // W1 weights (784 x H x 4B)
	w2Buf    arch.VA // W2 weights (H x 10 x 4B)
	actBuf   arch.VA // hidden activations for a batch
	// FinalLoss is the last epoch's mean training loss, set by Train.
	FinalLoss float64
}

// NewMLPVictim builds the victim on dev: allocates weight and
// activation buffers proportional to the architecture and generates
// its training data.
func NewMLPVictim(m *sim.Machine, dev arch.DeviceID, seed uint64, cfg MLPVictimConfig) (*MLPVictim, error) {
	if cfg.Hidden <= 0 || cfg.Epochs <= 0 || cfg.Samples <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("victim: bad MLP config %+v", cfg)
	}
	p, err := cudart.NewProcess(m, dev, seed)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(seed ^ 0x3141592653589793)
	v := &MLPVictim{
		Net:  NewMLP(cfg.Hidden, rng.Split()),
		Proc: p,
		Cfg:  cfg,
		Data: SynthMNIST(cfg.Samples, rng.Split()),
	}
	alloc := func(bytes uint64) arch.VA {
		if bytes < arch.CacheLineSize {
			bytes = arch.CacheLineSize
		}
		va, err2 := p.Malloc(bytes)
		if err2 != nil {
			err = err2
		}
		return va
	}
	v.inputBuf = alloc(uint64(cfg.BatchSize) * ImgPixels * 4)
	v.w1Buf = alloc(uint64(ImgPixels) * uint64(cfg.Hidden) * 4)
	v.w2Buf = alloc(uint64(cfg.Hidden) * 10 * 4)
	v.actBuf = alloc(uint64(cfg.BatchSize) * uint64(cfg.Hidden) * 4)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// lines returns the line count of a byte size, at least 1.
func lines(bytes uint64) int {
	n := int((bytes + arch.CacheLineSize - 1) / arch.CacheLineSize)
	if n == 0 {
		n = 1
	}
	return n
}

// Launch starts the training kernel. Per batch it issues the device
// traffic of one SGD step: input batch in, W1 read (forward),
// activations, W2 read, then W2 and W1 again for the backward pass and
// update. Between epochs it idles on heavy arithmetic (the evaluation
// pause). The traffic does not depend on the weight values, so Launch
// leaves Net untouched; Train fits it.
func (v *MLPVictim) Launch(done *bool) error {
	cfg := v.Cfg
	inLines := lines(uint64(cfg.BatchSize) * ImgPixels * 4)
	w1Lines := lines(uint64(ImgPixels) * uint64(cfg.Hidden) * 4)
	w2Lines := lines(uint64(cfg.Hidden) * 10 * 4)
	actLines := lines(uint64(cfg.BatchSize) * uint64(cfg.Hidden) * 4)
	return v.Proc.Launch(fmt.Sprintf("mlp-h%d", cfg.Hidden), 0, func(k *cudart.Kernel) {
		if done != nil {
			defer func() { *done = true }()
		}
		for ep := 0; ep < cfg.Epochs; ep++ {
			for b := 0; b+cfg.BatchSize <= cfg.Samples; b += cfg.BatchSize {
				k.Stream(v.inputBuf, inLines, arch.CacheLineSize) // H2D batch
				k.Stream(v.w1Buf, w1Lines, arch.CacheLineSize)    // forward W1
				k.Stream(v.actBuf, actLines, arch.CacheLineSize)  // activations
				k.Stream(v.w2Buf, w2Lines, arch.CacheLineSize)    // forward W2
				k.Stream(v.w2Buf, w2Lines, arch.CacheLineSize)    // backward W2 + update
				k.Stream(v.w1Buf, w1Lines, arch.CacheLineSize)    // backward W1 + update
				k.Busy(cfg.BatchSize * cfg.Hidden / 4)            // MACs
			}
			if ep < cfg.Epochs-1 && cfg.EpochGapOps > 0 {
				k.BusyHeavy(cfg.EpochGapOps) // quiet inter-epoch pause
			}
		}
	})
}

// Train runs the host-side SGD that Launch's traffic stands for: the
// same epochs and whole batches, one TrainSample per sample in order.
// It sets FinalLoss to the last epoch's mean loss.
func (v *MLPVictim) Train() {
	cfg := v.Cfg
	used := cfg.Samples / cfg.BatchSize * cfg.BatchSize
	for ep := 0; ep < cfg.Epochs; ep++ {
		var epochLoss float64
		for s := 0; s < used; s++ {
			epochLoss += v.Net.TrainSample(v.Data.Images[s], v.Data.Labels[s])
		}
		v.FinalLoss = epochLoss / float64(cfg.Samples)
	}
}
