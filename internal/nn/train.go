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

// FinalLoss returns the last epoch's mean loss (NaN when empty).
func (t TrainResult) FinalLoss() float64 {
	if len(t.EpochLoss) == 0 {
		return math.NaN()
	}
	return t.EpochLoss[len(t.EpochLoss)-1]
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

	gW1 := make([]float64, len(net.W1))
	gB1 := make([]float64, len(net.B1))
	gW2 := make([]float64, len(net.W2))
	gB2 := make([]float64, len(net.B2))
	aW1 := newAdamState(len(net.W1))
	aB1 := newAdamState(len(net.B1))
	aW2 := newAdamState(len(net.W2))
	aB2 := newAdamState(len(net.B2))

	hidden := make([]float64, net.Hidden)
	probs := make([]float64, net.Out)
	dHidden := make([]float64, net.Hidden)

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
			zero(gW1)
			zero(gB1)
			zero(gW2)
			zero(gB2)
			for _, idx := range batch {
				xStd, y := xs[idx*net.In:(idx+1)*net.In], Y[idx]
				forwardHidden(net, xStd, hidden)
				maxLogit := math.Inf(-1)
				for o := 0; o < net.Out; o++ {
					sum := net.B2[o]
					row := net.W2[o*net.Hidden : (o+1)*net.Hidden]
					for h, w := range row {
						sum += w * hidden[h]
					}
					probs[o] = sum
					if sum > maxLogit {
						maxLogit = sum
					}
				}
				var z float64
				for o := range probs {
					probs[o] = math.Exp(probs[o] - maxLogit)
					z += probs[o]
				}
				for o := range probs {
					probs[o] /= z
				}
				p := probs[y]
				if p < 1e-12 {
					p = 1e-12
				}
				epochLoss += -math.Log(p)

				// Backward: dLogit = probs - target, where target is the
				// (possibly smoothed) label distribution.
				smooth := cfg.LabelSmoothing
				zero(dHidden)
				for o := 0; o < net.Out; o++ {
					target := smooth / float64(net.Out)
					if o == y {
						target += 1 - smooth
					}
					d := probs[o] - target
					gB2[o] += d
					row := net.W2[o*net.Hidden : (o+1)*net.Hidden]
					gRow := gW2[o*net.Hidden : (o+1)*net.Hidden]
					for h, a := range hidden {
						gRow[h] += d * a
						dHidden[h] += d * row[h]
					}
				}
				for h, a := range hidden {
					if a <= 0 { // ReLU gate
						continue
					}
					d := dHidden[h]
					gB1[h] += d
					gRow := gW1[h*net.In : (h+1)*net.In]
					gRow = gRow[:len(xStd)] // no bounds checks below
					for i, x := range xStd {
						gRow[i] += d * x
					}
				}
			}
			inv := 1 / float64(len(batch))
			step++
			adamUpdate(net.W1, gW1, aW1, cfg, inv, step, true)
			adamUpdate(net.B1, gB1, aB1, cfg, inv, step, false)
			adamUpdate(net.W2, gW2, aW2, cfg, inv, step, true)
			adamUpdate(net.B2, gB2, aB2, cfg, inv, step, false)
		}
		res.EpochLoss = append(res.EpochLoss, epochLoss/float64(len(X)))
	}
	return res, nil
}

// forwardHidden writes the ReLU hidden activations for the standardized
// input xStd into hidden. It accumulates two hidden units per pass over
// the input; each sum still adds its products in input order, so the
// activations are those of a one-unit-at-a-time loop, bit for bit.
func forwardHidden(net *Network, xStd, hidden []float64) {
	in := len(xStd)
	h := 0
	for ; h+1 < net.Hidden; h += 2 {
		r0 := net.W1[h*in : (h+1)*in]
		r1 := net.W1[(h+1)*in : (h+2)*in]
		r0, r1 = r0[:in], r1[:in] // lengths the compiler can see: no bounds checks below
		s0, s1 := net.B1[h], net.B1[h+1]
		for i, x := range xStd {
			s0 += r0[i] * x
			s1 += r1[i] * x
		}
		hidden[h], hidden[h+1] = relu(s0), relu(s1)
	}
	if h < net.Hidden {
		sum := net.B1[h]
		for i, w := range net.W1[h*in : (h+1)*in] {
			sum += w * xStd[i]
		}
		hidden[h] = relu(sum)
	}
}

// relu clamps negative sums to +0 and passes the rest, −0 included,
// through unchanged; max(s, 0) would turn −0 into +0.
func relu(s float64) float64 {
	if s < 0 {
		return 0
	}
	return s
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
