// Package nn implements the paper's activity classifier from scratch: a
// multi-layer perceptron with one ReLU hidden layer and a softmax output
// layer (Section III-C), together with a mini-batch trainer, input
// standardization, binary serialization and classifier-memory accounting.
//
// AdaSense trains a *single* such network on feature vectors pooled from
// every sensor configuration; the intensity-based baseline trains one per
// configuration. Both use this package.
package nn

import (
	"fmt"
	"math"

	"adasense/internal/rng"
)

// Network is a 2-layer MLP: standardize → W1·x+b1 → ReLU → W2·h+b2 →
// softmax. Weights are row-major: W1[h*In+i] connects input i to hidden h.
//
// A Network is safe for concurrent inference once training has finished
// (inference methods write only to caller-provided or local buffers).
type Network struct {
	In, Hidden, Out int

	W1, B1 []float64 // Hidden×In, Hidden
	W2, B2 []float64 // Out×Hidden, Out

	// MeanIn/StdIn standardize inputs; set by the trainer from the
	// training corpus. StdIn entries are never zero.
	MeanIn, StdIn []float64
}

// New returns a network with He-initialized weights drawn from r and
// identity standardization. It panics on non-positive dimensions.
func New(in, hidden, out int, r *rng.Source) *Network {
	if in <= 0 || hidden <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dimensions %d/%d/%d", in, hidden, out))
	}
	n := &Network{
		In: in, Hidden: hidden, Out: out,
		W1:     make([]float64, hidden*in),
		B1:     make([]float64, hidden),
		W2:     make([]float64, out*hidden),
		B2:     make([]float64, out),
		MeanIn: make([]float64, in),
		StdIn:  make([]float64, in),
	}
	for i := range n.StdIn {
		n.StdIn[i] = 1
	}
	s1 := math.Sqrt(2 / float64(in))
	for i := range n.W1 {
		n.W1[i] = r.NormSigma(0, s1)
	}
	s2 := math.Sqrt(2 / float64(hidden))
	for i := range n.W2 {
		n.W2[i] = r.NormSigma(0, s2)
	}
	return n
}

// NumParams returns the number of trainable parameters (weights + biases).
func (n *Network) NumParams() int {
	return len(n.W1) + len(n.B1) + len(n.W2) + len(n.B2)
}

// WeightBytes returns the storage footprint of the classifier's parameters
// (including the standardization vectors, which must ship with the model)
// at the given bytes per parameter (4 for float32, 2 for Q15).
func (n *Network) WeightBytes(bytesPerParam int) int {
	return (n.NumParams() + len(n.MeanIn) + len(n.StdIn)) * bytesPerParam
}

// ForwardInto computes the hidden activations and output probabilities
// for input x into hidden and probs, which must have lengths Hidden and
// Out; it allocates nothing. len(x) must equal In.
//
// Each hidden sum starts from its bias and adds w·(x[i]−MeanIn[i])/StdIn[i]
// in input order, the ReLU clamps only sums below zero (−0 and NaN pass
// unchanged), and the logits are affine's, so the result is that of the
// one-unit-at-a-time loop, bit for bit. Four hidden rows share each pass
// over the input so their independent sums overlap in the pipeline.
func (n *Network) ForwardInto(x, hidden, probs []float64) {
	if len(x) != n.In || len(hidden) != n.Hidden || len(probs) != n.Out {
		panic(fmt.Sprintf("nn: forward sizes %d/%d/%d, want %d/%d/%d",
			len(x), len(hidden), len(probs), n.In, n.Hidden, n.Out))
	}
	in := n.In
	mean, std := n.MeanIn[:in], n.StdIn[:in] // lengths the compiler can see: no bounds checks below
	h := 0
	for ; h+3 < n.Hidden; h += 4 {
		r0 := n.W1[h*in : (h+1)*in]
		r1 := n.W1[(h+1)*in : (h+2)*in]
		r2 := n.W1[(h+2)*in : (h+3)*in]
		r3 := n.W1[(h+3)*in : (h+4)*in]
		r0, r1, r2, r3 = r0[:in], r1[:in], r2[:in], r3[:in]
		s0, s1, s2, s3 := n.B1[h], n.B1[h+1], n.B1[h+2], n.B1[h+3]
		for i, v := range x {
			d, sd := v-mean[i], std[i]
			s0 += r0[i] * d / sd
			s1 += r1[i] * d / sd
			s2 += r2[i] * d / sd
			s3 += r3[i] * d / sd
		}
		hidden[h], hidden[h+1], hidden[h+2], hidden[h+3] = relu(s0), relu(s1), relu(s2), relu(s3)
	}
	for ; h < n.Hidden; h++ {
		s := n.B1[h]
		for i, w := range n.W1[h*in : (h+1)*in] {
			s += w * (x[i] - mean[i]) / std[i]
		}
		hidden[h] = relu(s)
	}
	affine(n.W2, n.B2, hidden, probs)
	maxLogit := math.Inf(-1)
	for _, l := range probs {
		if l > maxLogit {
			maxLogit = l
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

// Forward returns the class probability vector for input x, writing into
// probs when it has capacity Out. len(x) must equal In. It allocates the
// hidden activations; ForwardInto takes them from the caller.
func (n *Network) Forward(x, probs []float64) []float64 {
	if cap(probs) < n.Out {
		probs = make([]float64, n.Out)
	}
	probs = probs[:n.Out]
	n.ForwardInto(x, make([]float64, n.Hidden), probs)
	return probs
}

// Predict returns the most probable class for x and the softmax confidence
// of that class — the quantity SPOT-with-confidence thresholds on.
func (n *Network) Predict(x []float64) (class int, confidence float64) {
	probs := n.Forward(x, nil)
	class = argmax(probs)
	return class, probs[class]
}

// argmax returns the index of the largest probability, the first one on
// a tie.
func argmax(probs []float64) int {
	class := 0
	for o, p := range probs {
		if p > probs[class] {
			class = o
		}
	}
	return class
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := *n
	c.W1 = append([]float64(nil), n.W1...)
	c.B1 = append([]float64(nil), n.B1...)
	c.W2 = append([]float64(nil), n.W2...)
	c.B2 = append([]float64(nil), n.B2...)
	c.MeanIn = append([]float64(nil), n.MeanIn...)
	c.StdIn = append([]float64(nil), n.StdIn...)
	return &c
}
