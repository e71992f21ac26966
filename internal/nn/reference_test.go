package nn

import (
	"fmt"
	"math"
	"testing"

	"adasense/internal/rng"
)

// trainReference is Train written the plain way: one hidden unit and one
// logit at a time, a branching ReLU, a branching backward gate and a
// one-parameter-at-a-time Adam step. Train must match it bit for bit.
func trainReference(net *Network, X [][]float64, Y []int, cfg TrainConfig, r *rng.Source) TrainResult {
	setStandardization(net, X)
	return fitReference(net, X, Y, cfg, r)
}

// fitReference is trainReference after the standardization: it
// standardizes X with the network's MeanIn and StdIn as it goes.
func fitReference(net *Network, X [][]float64, Y []int, cfg TrainConfig, r *rng.Source) TrainResult {
	cfg = cfg.withDefaults()
	gW1 := make([]float64, len(net.W1))
	gB1 := make([]float64, len(net.B1))
	gW2 := make([]float64, len(net.W2))
	gB2 := make([]float64, len(net.B2))
	aW1 := newAdamState(len(net.W1))
	aB1 := newAdamState(len(net.B1))
	aW2 := newAdamState(len(net.W2))
	aB2 := newAdamState(len(net.B2))
	xStd := make([]float64, net.In)
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
			end := min(start+cfg.BatchSize, len(order))
			batch := order[start:end]
			zero(gW1)
			zero(gB1)
			zero(gW2)
			zero(gB2)
			for _, idx := range batch {
				y := Y[idx]
				for i, v := range X[idx] {
					xStd[i] = (v - net.MeanIn[i]) / net.StdIn[i]
				}
				for h := 0; h < net.Hidden; h++ {
					sum := net.B1[h]
					for i, w := range net.W1[h*net.In : (h+1)*net.In] {
						sum += w * xStd[i]
					}
					if sum < 0 {
						sum = 0
					}
					hidden[h] = sum
				}
				maxLogit := math.Inf(-1)
				for o := 0; o < net.Out; o++ {
					sum := net.B2[o]
					for h, w := range net.W2[o*net.Hidden : (o+1)*net.Hidden] {
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
					if a <= 0 {
						continue
					}
					d := dHidden[h]
					gB1[h] += d
					gRow := gW1[h*net.In : (h+1)*net.In]
					for i, x := range xStd {
						gRow[i] += d * x
					}
				}
			}
			inv := 1 / float64(len(batch))
			step++
			adamReference(net.W1, gW1, aW1, cfg, inv, step, true)
			adamReference(net.B1, gB1, aB1, cfg, inv, step, false)
			adamReference(net.W2, gW2, aW2, cfg, inv, step, true)
			adamReference(net.B2, gB2, aB2, cfg, inv, step, false)
		}
		res.EpochLoss = append(res.EpochLoss, epochLoss/float64(len(X)))
	}
	return res
}

// adamReference is adamUpdate one parameter at a time.
func adamReference(params, g []float64, st adamState, cfg TrainConfig, inv float64, step int, decay bool) {
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

// sameBits reports the first index where a and b differ bit for bit.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return min(len(a), len(b)), false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// checkAgainstReference trains two copies of net, one with Train and one
// with trainReference, from the same shuffle seed and requires every
// parameter, standardization value and epoch loss to match bit for bit.
func checkAgainstReference(t *testing.T, net *Network, X [][]float64, Y []int, cfg TrainConfig) {
	t.Helper()
	ref := net.Clone()
	res, err := Train(net, X, Y, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	requireSameTraining(t, net, ref, res, trainReference(ref, X, Y, cfg, rng.New(7)))
}

// requireSameTraining requires net and ref, and their training results,
// to match bit for bit.
func requireSameTraining(t *testing.T, net, ref *Network, res, want TrainResult) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"W1", net.W1, ref.W1}, {"B1", net.B1, ref.B1},
		{"W2", net.W2, ref.W2}, {"B2", net.B2, ref.B2},
		{"MeanIn", net.MeanIn, ref.MeanIn}, {"StdIn", net.StdIn, ref.StdIn},
		{"EpochLoss", res.EpochLoss, want.EpochLoss},
	} {
		if i, ok := sameBits(c.got, c.want); !ok {
			if i < min(len(c.got), len(c.want)) {
				t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", c.name, i,
					c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
			}
			t.Fatalf("%s has %d values, reference %d", c.name, len(c.got), len(c.want))
		}
	}
}

func TestTrainMatchesReference(t *testing.T) {
	skipOffAMD64(t)
	for _, in := range []int{2, 15, 24} {
		for _, hidden := range []int{1, 3, 4, 5, 32, 33} {
			for _, out := range []int{2, 6, 7} {
				for _, smoothing := range []float64{0, 0.1} {
					name := fmt.Sprintf("%d-%d-%d/smooth=%v", in, hidden, out, smoothing)
					t.Run(name, func(t *testing.T) {
						r := rng.New(uint64(1000*in + 10*hidden + out))
						X, Y := scaledCorpus(r, 90, in, out)
						net := New(in, hidden, out, r.Split(1))
						cfg := TrainConfig{Epochs: 3, BatchSize: 16, LabelSmoothing: smoothing}
						checkAgainstReference(t, net, X, Y, cfg)
					})
				}
			}
		}
	}
}

// TestTrainMatchesReferenceConstantFeature covers a feature whose std is
// floored: it standardizes to exactly zero in every input.
func TestTrainMatchesReferenceConstantFeature(t *testing.T) {
	skipOffAMD64(t)
	r := rng.New(3)
	X, Y := scaledCorpus(r, 120, 15, 6)
	for _, x := range X {
		x[4] = 2.5
	}
	net := New(15, 33, 6, r.Split(1))
	checkAgainstReference(t, net, X, Y, TrainConfig{Epochs: 4, BatchSize: 32})
	if net.StdIn[4] != 1 {
		t.Fatalf("constant feature std = %v, want the floor value 1", net.StdIn[4])
	}
}

// TestTrainMatchesReferenceDeadUnits covers hidden units the ReLU gate
// blocks for every input: their biases are far below anything the
// standardized inputs can lift.
func TestTrainMatchesReferenceDeadUnits(t *testing.T) {
	skipOffAMD64(t)
	r := rng.New(4)
	X, Y := scaledCorpus(r, 120, 15, 6)
	net := New(15, 33, 6, r.Split(1))
	dead := []int{0, 5, 6, 7, 20, 32}
	for _, h := range dead {
		net.B1[h] = -1e3
	}
	checkAgainstReference(t, net, X, Y, TrainConfig{Epochs: 4, BatchSize: 32})
	hidden := make([]float64, net.Hidden)
	probs := make([]float64, net.Out)
	for _, x := range X {
		net.ForwardInto(x, hidden, probs)
		for _, h := range dead {
			if hidden[h] != 0 {
				t.Fatalf("unit %d is live after training (activation %v)", h, hidden[h])
			}
		}
	}
}

// TestTrainMatchesReferenceNaN covers a corpus holding a NaN: it spreads
// to every activation, and a NaN unit must still back-propagate.
func TestTrainMatchesReferenceNaN(t *testing.T) {
	skipOffAMD64(t)
	r := rng.New(5)
	X, Y := scaledCorpus(r, 40, 15, 6)
	X[3][2] = math.NaN()
	net := New(15, 5, 6, r.Split(1))
	checkAgainstReference(t, net, X, Y, TrainConfig{Epochs: 2, BatchSize: 16})
}

// TestTrainMatchesReferenceInf covers infinite standardized inputs. A
// corpus standardization cannot produce one (a z-score is bounded by the
// square root of the corpus size), so the test keeps the identity
// standardization New installs and fits directly. Units whose sum is
// −Inf are gated off while their input is infinite, and such a unit must
// add nothing to its gradient row, where 0·Inf would add NaN. The
// infinite inputs turn the logits, and from the next step on every unit
// that passes the gate, into NaN, so the fit is one step over the whole
// corpus: after it, the rows of the units gated off in both infinite
// inputs are still finite.
func TestTrainMatchesReferenceInf(t *testing.T) {
	skipOffAMD64(t)
	r := rng.New(6)
	X, Y := scaledCorpus(r, 64, 15, 6)
	X[5][3] = math.Inf(1)
	X[40][7] = math.Inf(-1)
	net := New(15, 33, 6, r.Split(1))
	ref := net.Clone()
	cfg := TrainConfig{Epochs: 1, BatchSize: len(X)}.withDefaults()
	res := fit(net, standardize(net, X), Y, cfg, rng.New(7))
	want := fitReference(ref, X, Y, cfg, rng.New(7))
	requireSameTraining(t, net, ref, res, want)

	var finite, nan int
	for _, w := range ref.W1 {
		if math.IsNaN(w) {
			nan++
		} else {
			finite++
		}
	}
	if finite == 0 || nan == 0 {
		t.Fatalf("%d first-layer weights stayed finite and %d became NaN; want some of each", finite, nan)
	}
}

func TestReLUBits(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	for _, c := range []struct {
		in, want float64
	}{
		{0, 0},
		{math.Copysign(0, -1), math.Copysign(0, -1)},
		{-1, 0},
		{math.Inf(-1), 0},
		{2.5, 2.5},
		{math.Inf(1), math.Inf(1)},
		{math.NaN(), math.NaN()},
		{negNaN, negNaN},
	} {
		if got := relu(c.in); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("relu(%v) bits = %#x, want %#x", c.in, math.Float64bits(got), math.Float64bits(c.want))
		}
	}
}

// forwardReference is ForwardInto written the plain way: one hidden unit
// and then one logit at a time, with a branching ReLU. ForwardInto must
// match it bit for bit.
func forwardReference(n *Network, x, hidden, probs []float64) {
	for h := 0; h < n.Hidden; h++ {
		sum := n.B1[h]
		row := n.W1[h*n.In : (h+1)*n.In]
		for i, w := range row {
			sum += w * (x[i] - n.MeanIn[i]) / n.StdIn[i]
		}
		if sum < 0 {
			sum = 0
		}
		hidden[h] = sum
	}
	maxLogit := math.Inf(-1)
	for o := 0; o < n.Out; o++ {
		sum := n.B2[o]
		row := n.W2[o*n.Hidden : (o+1)*n.Hidden]
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
}

// checkForwardMatches runs x through ForwardInto and the reference and
// requires the hidden activations and probabilities to match bit for bit.
func checkForwardMatches(t *testing.T, net *Network, x []float64) {
	t.Helper()
	hidden, probs := make([]float64, net.Hidden), make([]float64, net.Out)
	wantHidden, wantProbs := make([]float64, net.Hidden), make([]float64, net.Out)
	net.ForwardInto(x, hidden, probs)
	forwardReference(net, x, wantHidden, wantProbs)
	shape := fmt.Sprintf("%d-%d-%d", net.In, net.Hidden, net.Out)
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"hidden", hidden, wantHidden}, {"probs", probs, wantProbs}} {
		if i, ok := sameBits(c.got, c.want); !ok {
			t.Fatalf("%s: %s[%d] = %v (%#x), reference %v (%#x)", shape, c.name, i,
				c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
		}
	}
}

// randomNetwork returns a network of the given shape with random weights,
// biases and standardization.
func randomNetwork(r *rng.Source, in, hidden, out int) *Network {
	net := New(in, hidden, out, r)
	for i := range net.B1 {
		net.B1[i] = r.NormSigma(0, 0.5)
	}
	for i := range net.B2 {
		net.B2[i] = r.NormSigma(0, 0.5)
	}
	for i := range net.MeanIn {
		net.MeanIn[i] = r.NormSigma(0, 5)
		net.StdIn[i] = r.Uniform(0.1, 10)
	}
	return net
}

func TestForwardMatchesReference(t *testing.T) {
	skipOffAMD64(t)
	r := rng.New(21)
	for trial := 0; trial < 300; trial++ {
		net := randomNetwork(r, 1+r.Intn(24), 1+r.Intn(40), 1+r.Intn(7))
		x := make([]float64, net.In)
		for i := range x {
			x[i] = net.MeanIn[i] + r.NormSigma(0, 3*net.StdIn[i])
		}
		checkForwardMatches(t, net, x)
	}
}

// TestForwardMatchesReferenceSpecialValues covers the values whose bits a
// careless ReLU or sum order would change: hidden sums of −0, which pass
// the ReLU as −0, and NaN, from an input or from one unit's weight.
func TestForwardMatchesReferenceSpecialValues(t *testing.T) {
	skipOffAMD64(t)
	negZero := math.Copysign(0, -1)
	r := rng.New(22)
	for _, hidden := range []int{1, 3, 4, 7, 32} {
		net := randomNetwork(r, 15, hidden, 6)
		// Units 0 and 2 see only zero weights from a −0 bias: with a −0
		// input every term is −0, so their sums are −0.
		for _, h := range []int{0, 2} {
			if h < hidden {
				net.B1[h] = negZero
				clear(net.W1[h*net.In : (h+1)*net.In])
			}
		}
		clear(net.MeanIn)
		x := make([]float64, net.In)
		for i := range x {
			x[i] = negZero
		}
		checkForwardMatches(t, net, x)
		h, probs := make([]float64, hidden), make([]float64, 6)
		if net.ForwardInto(x, h, probs); math.Float64bits(h[0]) != math.Float64bits(negZero) {
			t.Fatalf("unit 0 = %v, want −0", h[0])
		}

		x[3] = math.NaN()
		checkForwardMatches(t, net, x)

		x[3] = 1
		net.W1[(hidden-1)*net.In+5] = math.NaN()
		checkForwardMatches(t, net, x)
	}
}

func TestForwardIntoPanicsOnSizeMismatch(t *testing.T) {
	net := New(3, 5, 2, rng.New(1))
	for _, sizes := range [][3]int{{2, 5, 2}, {3, 4, 2}, {3, 5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("sizes %v accepted", sizes)
				}
			}()
			net.ForwardInto(make([]float64, sizes[0]), make([]float64, sizes[1]), make([]float64, sizes[2]))
		}()
	}
}
