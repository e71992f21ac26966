// Package fixedpoint quantizes the activity classifier to int16 (Q15)
// weights and runs its inference in fixed point.
//
// The paper's target MCU (CC2640R2F, Cortex-M3) has no FPU, and its memory
// argument counts classifier bytes; shipping int16 weights halves the
// footprint again relative to float32. This package quantizes a trained
// nn.Network to symmetric per-tensor Q15 and runs inference with int32
// accumulators, so the repository can measure the accuracy cost of the
// deployment-grade arithmetic (`adasense-experiments -run fixedpoint`).
// Serving runs the float network; only that ablation quantizes.
package fixedpoint

import (
	"math"

	"adasense/internal/nn"
)

// Tensor is a per-tensor symmetrically quantized weight matrix: real value
// = int16 value × Scale.
type Tensor struct {
	Data  []int16
	Scale float64
}

// quantizeTensor quantizes values symmetrically to int16.
func quantizeTensor(values []float64) Tensor {
	t := Tensor{Data: make([]int16, len(values))}
	t.Scale = quantizeInto(t.Data, values)
	return t
}

// quantizeInto is the in-place form of quantizeTensor for preallocated
// scratch: it quantizes values symmetrically into dst (same length) and
// returns the scale.
func quantizeInto(dst []int16, values []float64) float64 {
	maxAbs := 0.0
	for _, v := range values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 1
	}
	scale := maxAbs / 32767
	for i, v := range values {
		q := math.Round(v / scale)
		if q > 32767 {
			q = 32767
		} else if q < -32768 {
			q = -32768
		}
		dst[i] = int16(q)
	}
	return scale
}

// Network is a quantized 2-layer MLP: int16 weights with per-tensor
// scales, float biases and standardization (biases are a negligible share
// of the parameters and keeping them exact isolates the weight-precision
// effect).
type Network struct {
	In, Hidden, Out int
	W1, W2          Tensor
	B1, B2          []float64
	MeanIn, StdIn   []float64
}

// Quantize converts a trained float network to the Q15 deployment form.
func Quantize(n *nn.Network) *Network {
	return &Network{
		In: n.In, Hidden: n.Hidden, Out: n.Out,
		W1:     quantizeTensor(n.W1),
		W2:     quantizeTensor(n.W2),
		B1:     append([]float64(nil), n.B1...),
		B2:     append([]float64(nil), n.B2...),
		MeanIn: append([]float64(nil), n.MeanIn...),
		StdIn:  append([]float64(nil), n.StdIn...),
	}
}

// WeightBytes returns the storage footprint: 2 bytes per weight, 4 per
// bias/standardization entry.
func (q *Network) WeightBytes() int {
	return 2*(len(q.W1.Data)+len(q.W2.Data)) +
		4*(len(q.B1)+len(q.B2)+len(q.MeanIn)+len(q.StdIn))
}

// Forward computes class probabilities with quantized weights: inputs are
// standardized and quantized to Q12.4-style fixed scale per layer, MACs
// accumulate in int32, and activations dequantize between layers. The
// softmax runs in float (it is a handful of scalar ops on the MCU).
func (q *Network) Forward(x []float64) []float64 {
	if len(x) != q.In {
		panic("fixedpoint: input size mismatch")
	}
	probs := make([]float64, q.Out)
	// Standardize and quantize the input with its own symmetric scale.
	xs := make([]float64, q.In)
	for i := range xs {
		xs[i] = (x[i] - q.MeanIn[i]) / q.StdIn[i]
	}
	xq := make([]int16, q.In)
	xScale := quantizeInto(xq, xs)

	hidden := make([]float64, q.Hidden)
	for h := range hidden {
		var acc int64
		row := q.W1.Data[h*q.In : (h+1)*q.In]
		for i, w := range row {
			acc += int64(w) * int64(xq[i])
		}
		v := float64(acc)*q.W1.Scale*xScale + q.B1[h]
		if v < 0 {
			v = 0
		}
		hidden[h] = v
	}
	hq := make([]int16, q.Hidden)
	hScale := quantizeInto(hq, hidden)
	maxLogit := math.Inf(-1)
	for o := range probs {
		var acc int64
		row := q.W2.Data[o*q.Hidden : (o+1)*q.Hidden]
		for h, w := range row {
			acc += int64(w) * int64(hq[h])
		}
		v := float64(acc)*q.W2.Scale*hScale + q.B2[o]
		probs[o] = v
		if v > maxLogit {
			maxLogit = v
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
	return probs
}

// Predict returns the most probable class and its confidence.
func (q *Network) Predict(x []float64) (int, float64) {
	return argmax(q.Forward(x))
}

func argmax(probs []float64) (int, float64) {
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	return best, probs[best]
}
