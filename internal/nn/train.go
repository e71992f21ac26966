package nn

import (
	"fmt"
	"math"

	"adasense/internal/rng"
)

// TrainConfig holds hyperparameters for mini-batch Adam training with
// cross-entropy loss.
type TrainConfig struct {
	Epochs    int     // passes over the corpus (default 40)
	BatchSize int     // mini-batch size (default 32)
	LR        float64 // Adam step size (default 3e-3)
	L2        float64 // weight decay coefficient (default 1e-4)
	// LabelSmoothing mixes the one-hot target with the uniform
	// distribution: target = (1-s)·onehot + s/K. Smoothing calibrates the
	// softmax confidences the SPOT confidence gate thresholds on
	// (default 0: disabled).
	LabelSmoothing float64
	Beta1          float64 // Adam first-moment decay (default 0.9)
	Beta2          float64 // Adam second-moment decay (default 0.999)
}

// withDefaults fills zero fields with the package defaults.
func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.L2 == 0 {
		c.L2 = 1e-4
	}
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	return c
}

// TrainResult reports the training trajectory.
type TrainResult struct {
	EpochLoss []float64 // mean cross-entropy per epoch
}

// adamState holds first/second moment estimates for one parameter slice.
type adamState struct{ m, v []float64 }

func newAdamState(n int) adamState {
	return adamState{m: make([]float64, n), v: make([]float64, n)}
}

// Train fits the network to inputs X with integer labels Y using
// mini-batch Adam and cross-entropy. It computes the input standardization
// from X first (overwriting MeanIn/StdIn). Shuffling draws from r, so the
// whole procedure is deterministic given (network init, r).
//
// The result is pinned bit for bit, on amd64, to a plain one-unit-at-a-time
// loop (trainReference in the tests), so the kernels it runs on
// (kernels.go) keep three invariants:
//   - every dot product starts from its bias (or from zero) and adds its
//     products in index order, with no reassociation or fused multiply-add;
//   - ReLU maps a negative sum to +0 and passes −0 and NaN through
//     unchanged;
//   - a hidden unit back-propagates unless its activation is <= 0, so a
//     NaN unit still contributes its gradient, and a unit that does not
//     back-propagates adds nothing, not 0·x.
func Train(net *Network, X [][]float64, Y []int, cfg TrainConfig, r *rng.Source) (TrainResult, error) {
	if len(X) == 0 || len(X) != len(Y) {
		return TrainResult{}, fmt.Errorf("nn: bad corpus (%d inputs, %d labels)", len(X), len(Y))
	}
	for i, x := range X {
		if len(x) != net.In {
			return TrainResult{}, fmt.Errorf("nn: input %d has size %d, want %d", i, len(x), net.In)
		}
		if Y[i] < 0 || Y[i] >= net.Out {
			return TrainResult{}, fmt.Errorf("nn: label %d out of range [0,%d)", Y[i], net.Out)
		}
	}
	if cfg.LabelSmoothing < 0 || cfg.LabelSmoothing >= 1 {
		return TrainResult{}, fmt.Errorf("nn: label smoothing %v outside [0,1)", cfg.LabelSmoothing)
	}
	setStandardization(net, X)
	return fit(net, standardize(net, X), Y, cfg.withDefaults(), r), nil
}

// fit trains net on the standardized corpus xs (row k at
// [k·In, (k+1)·In)) with labels Y.
func fit(net *Network, xs []float64, Y []int, cfg TrainConfig, r *rng.Source) TrainResult {
	g := newGradients(net, cfg.LabelSmoothing)
	aW1 := newAdamState(len(net.W1))
	aB1 := newAdamState(len(net.B1))
	aW2 := newAdamState(len(net.W2))
	aB2 := newAdamState(len(net.B2))

	var res TrainResult
	order := make([]int, len(Y))
	for i := range order {
		order[i] = i
	}
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			zero(g.W1)
			zero(g.B1)
			zero(g.W2)
			zero(g.B2)
			for _, idx := range batch {
				epochLoss += g.accumulate(xs[idx*net.In:(idx+1)*net.In], Y[idx])
			}
			inv := 1 / float64(len(batch))
			step++
			adamUpdate(net.W1, g.W1, aW1, cfg, inv, step, true)
			adamUpdate(net.B1, g.B1, aB1, cfg, inv, step, false)
			adamUpdate(net.W2, g.W2, aW2, cfg, inv, step, true)
			adamUpdate(net.B2, g.B2, aB2, cfg, inv, step, false)
			g.transposeWeights()
		}
		res.EpochLoss = append(res.EpochLoss, epochLoss/float64(len(Y)))
	}
	return res
}

// gradients accumulates one mini-batch's cross-entropy gradient, one
// sample at a time, together with the per-sample scratch that takes.
type gradients struct {
	net            *Network
	smooth         float64
	W1, B1, W2, B2 []float64 // batch sums, shaped like the network's
	w1T, w2T       []float64 // the network's W1 and W2 stored input-major, for affineT
	hidden         []float64 // ReLU activations
	dHidden        []float64 // loss gradient w.r.t. the activations
	active         []int     // indices of the units the ReLU lets through
	dLogit         []float64 // probabilities, then loss gradient w.r.t. the logits
}

func newGradients(net *Network, smooth float64) *gradients {
	g := &gradients{
		net:     net,
		smooth:  smooth,
		W1:      make([]float64, len(net.W1)),
		B1:      make([]float64, len(net.B1)),
		W2:      make([]float64, len(net.W2)),
		B2:      make([]float64, len(net.B2)),
		w1T:     make([]float64, len(net.W1)),
		w2T:     make([]float64, len(net.W2)),
		hidden:  make([]float64, net.Hidden),
		dHidden: make([]float64, net.Hidden),
		active:  make([]int, net.Hidden),
		dLogit:  make([]float64, net.Out),
	}
	g.transposeWeights()
	return g
}

// transposeWeights copies the network's current weights into w1T and
// w2T.
func (g *gradients) transposeWeights() {
	transpose(g.w1T, g.net.W1, g.net.Hidden, g.net.In)
	transpose(g.w2T, g.net.W2, g.net.Out, g.net.Hidden)
}

// transpose writes the rows×cols row-major matrix src into dst as
// cols×rows.
func transpose(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// accumulate runs the standardized input xStd with label y forward and
// back, adds its gradient to the batch sums and returns its loss.
func (g *gradients) accumulate(xStd []float64, y int) float64 {
	net, hidden, dLogit := g.net, g.hidden, g.dLogit
	affineT(g.w1T, net.B1, xStd, hidden)
	// The ReLU, and the list of the units its gate lets through, built
	// without a branch since their signs are unpredictable. !(a <= 0)
	// rather than a > 0 keeps a NaN unit in the list.
	active := g.active[:len(hidden)]
	n := 0
	for h, s := range hidden {
		a := relu(s)
		hidden[h] = a
		active[n] = h
		if !(a <= 0) {
			n++
		}
	}
	affineT(g.w2T, net.B2, hidden, dLogit)
	maxLogit := math.Inf(-1)
	for _, l := range dLogit {
		if l > maxLogit {
			maxLogit = l
		}
	}
	var z float64
	for o := range dLogit {
		dLogit[o] = math.Exp(dLogit[o] - maxLogit)
		z += dLogit[o]
	}
	for o := range dLogit {
		dLogit[o] /= z
	}
	p := dLogit[y]
	if p < 1e-12 {
		p = 1e-12
	}
	loss := -math.Log(p)

	// Backward: dLogit = probs - target, where target is the (possibly
	// smoothed) label distribution.
	uniform := g.smooth / float64(net.Out)
	for o := range dLogit {
		target := uniform
		if o == y {
			target += 1 - g.smooth
		}
		dLogit[o] -= target
		g.B2[o] += dLogit[o]
	}
	backOutput(dLogit, hidden, net.W2, g.W2, g.dHidden)
	backHidden(active[:n], g.dHidden, xStd, g.B1, g.W1)
	return loss
}

// relu clamps negative sums to +0 and passes the rest, −0 and NaN
// included, through unchanged; max(s, 0) would turn −0 into +0. It
// clears the bits under a mask rather than branching, because the sign
// of a hidden sum is unpredictable.
func relu(s float64) float64 {
	var m uint64
	if s < 0 {
		m = math.MaxUint64
	}
	return math.Float64frombits(math.Float64bits(s) &^ m)
}

// adamUpdate applies one Adam step to params given accumulated batch
// gradients g (scaled by inv = 1/batchSize). Weight decay applies only to
// weights, not biases.
func adamUpdate(params, g []float64, st adamState, cfg TrainConfig, inv float64, step int, decay bool) {
	k := adamConsts{
		inv:   inv,
		l2:    cfg.L2,
		beta1: cfg.Beta1, om1: 1 - cfg.Beta1,
		beta2: cfg.Beta2, om2: 1 - cfg.Beta2,
		c1:  1 - math.Pow(cfg.Beta1, float64(step)),
		c2:  1 - math.Pow(cfg.Beta2, float64(step)),
		lr:  cfg.LR,
		eps: 1e-8,
	}
	adamStep(params, g, st.m, st.v, &k, decay)
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// setStandardization computes per-feature mean and std over X and installs
// them on the network, flooring std at a small epsilon so constant
// features do not divide by zero.
func setStandardization(net *Network, X [][]float64) {
	in := net.In
	mean := make([]float64, in)
	for _, x := range X {
		for i := 0; i < in; i++ {
			mean[i] += x[i]
		}
	}
	for i := range mean {
		mean[i] /= float64(len(X))
	}
	std := make([]float64, in)
	for _, x := range X {
		for i := 0; i < in; i++ {
			d := x[i] - mean[i]
			std[i] += d * d
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i] / float64(len(X)))
		if std[i] < 1e-8 {
			std[i] = 1
		}
	}
	copy(net.MeanIn, mean)
	copy(net.StdIn, std)
}

// standardize returns X standardized with the network's MeanIn/StdIn,
// row-major in one slice: row k is X[k] at [k*In, (k+1)*In).
func standardize(net *Network, X [][]float64) []float64 {
	xs := make([]float64, 0, len(X)*net.In)
	for _, x := range X {
		for i, v := range x {
			xs = append(xs, (v-net.MeanIn[i])/net.StdIn[i])
		}
	}
	return xs
}

// Accuracy returns the fraction of inputs whose Predict class matches the
// label. It runs every input through one pair of buffers.
func Accuracy(net *Network, X [][]float64, Y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	hidden, probs := make([]float64, net.Hidden), make([]float64, net.Out)
	correct := 0
	for i, x := range X {
		net.ForwardInto(x, hidden, probs)
		if argmax(probs) == Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}
