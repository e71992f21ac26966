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
// loop (trainReference in the tests), so the kernels below keep three
// invariants:
//   - every dot product starts from its bias (or from zero) and adds its
//     products in index order, with no reassociation or fused multiply-add;
//   - ReLU maps a negative sum to +0 and passes −0 and NaN through
//     unchanged;
//   - a hidden unit back-propagates unless its activation is <= 0, so a
//     NaN unit still contributes its gradient.
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
	cfg = cfg.withDefaults()
	setStandardization(net, X)
	xs := standardize(net, X)

	g := newGradients(net, cfg.LabelSmoothing)
	aW1 := newAdamState(len(net.W1))
	aB1 := newAdamState(len(net.B1))
	aW2 := newAdamState(len(net.W2))
	aB2 := newAdamState(len(net.B2))

	var res TrainResult
	order := make([]int, len(X))
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
		}
		res.EpochLoss = append(res.EpochLoss, epochLoss/float64(len(X)))
	}
	return res, nil
}

// gradients accumulates one mini-batch's cross-entropy gradient, one
// sample at a time, together with the per-sample scratch that takes.
type gradients struct {
	net            *Network
	smooth         float64
	W1, B1, W2, B2 []float64 // batch sums, shaped like the network's
	hidden         []float64 // ReLU activations
	dHidden        []float64 // loss gradient w.r.t. the activations
	active         []int     // indices of the units the ReLU lets through
	dLogit         []float64 // probabilities, then loss gradient w.r.t. the logits
}

func newGradients(net *Network, smooth float64) *gradients {
	return &gradients{
		net:     net,
		smooth:  smooth,
		W1:      make([]float64, len(net.W1)),
		B1:      make([]float64, len(net.B1)),
		W2:      make([]float64, len(net.W2)),
		B2:      make([]float64, len(net.B2)),
		hidden:  make([]float64, net.Hidden),
		dHidden: make([]float64, net.Hidden),
		active:  make([]int, net.Hidden),
		dLogit:  make([]float64, net.Out),
	}
}

// accumulate runs the standardized input xStd with label y forward and
// back, adds its gradient to the batch sums and returns its loss.
func (g *gradients) accumulate(xStd []float64, y int) float64 {
	net, hidden, dLogit := g.net, g.hidden, g.dLogit
	affine(net.W1, net.B1, xStd, hidden)
	for h, s := range hidden {
		hidden[h] = relu(s)
	}
	affine(net.W2, net.B2, hidden, dLogit)
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
	dHidden := g.dHidden[:len(hidden)]
	zero(dHidden)
	for o := range dLogit {
		target := g.smooth / float64(net.Out)
		if o == y {
			target += 1 - g.smooth
		}
		d := dLogit[o] - target
		g.B2[o] += d
		row := net.W2[o*net.Hidden : (o+1)*net.Hidden]
		gRow := g.W2[o*net.Hidden : (o+1)*net.Hidden]
		row, gRow = row[:len(hidden)], gRow[:len(hidden)] // no bounds checks below
		for h, a := range hidden {
			gRow[h] += d * a
			dHidden[h] += d * row[h]
		}
	}

	// The ReLU gate: list the units it lets through without a branch,
	// since their signs are unpredictable. !(a <= 0) rather than a > 0
	// keeps a NaN unit in the list.
	n := 0
	for h, a := range hidden {
		g.active[n] = h
		if !(a <= 0) {
			n++
		}
	}
	// Two units per pass share each load of the input; then the one left
	// over.
	active := g.active[:n]
	k := 0
	for ; k+1 < len(active); k += 2 {
		h0, h1 := active[k], active[k+1]
		d0, d1 := dHidden[h0], dHidden[h1]
		g.B1[h0] += d0
		g.B1[h1] += d1
		r0 := g.W1[h0*net.In : (h0+1)*net.In]
		r1 := g.W1[h1*net.In : (h1+1)*net.In]
		r0, r1 = r0[:len(xStd)], r1[:len(xStd)]
		for i, x := range xStd {
			r0[i] += d0 * x
			r1[i] += d1 * x
		}
	}
	if k < len(active) {
		h := active[k]
		d := dHidden[h]
		g.B1[h] += d
		gRow := g.W1[h*net.In : (h+1)*net.In]
		gRow = gRow[:len(xStd)]
		for i, x := range xStd {
			gRow[i] += d * x
		}
	}
	return loss
}

// affine writes out[j] = b[j] + Σ_i w[j·len(x)+i]·x[i] for every row j
// of the row-major matrix w. It accumulates four rows per pass over x so
// their independent sums overlap in the pipeline, then finishes the rows
// left over one at a time. Each sum starts from its bias and adds its
// products in input order, so out is that of a one-row-at-a-time loop,
// bit for bit.
func affine(w, b, x, out []float64) {
	in := len(x)
	j := 0
	for ; j+3 < len(out); j += 4 {
		r0 := w[j*in : (j+1)*in]
		r1 := w[(j+1)*in : (j+2)*in]
		r2 := w[(j+2)*in : (j+3)*in]
		r3 := w[(j+3)*in : (j+4)*in]
		r0, r1, r2, r3 = r0[:in], r1[:in], r2[:in], r3[:in] // lengths the compiler can see: no bounds checks below
		s0, s1, s2, s3 := b[j], b[j+1], b[j+2], b[j+3]
		for i, v := range x {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < len(out); j++ {
		s := b[j]
		for i, v := range w[j*in : (j+1)*in] {
			s += v * x[i]
		}
		out[j] = s
	}
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
	c1 := 1 - math.Pow(cfg.Beta1, float64(step))
	c2 := 1 - math.Pow(cfg.Beta2, float64(step))
	for i := range params {
		grad := g[i] * inv
		if decay {
			grad += cfg.L2 * params[i]
		}
		st.m[i] = cfg.Beta1*st.m[i] + (1-cfg.Beta1)*grad
		st.v[i] = cfg.Beta2*st.v[i] + (1-cfg.Beta2)*grad*grad
		mHat := st.m[i] / c1
		vHat := st.v[i] / c2
		params[i] -= cfg.LR * mHat / (math.Sqrt(vHat) + 1e-8)
	}
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
// label.
func Accuracy(net *Network, X [][]float64, Y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, x := range X {
		if c, _ := net.Predict(x); c == Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}
