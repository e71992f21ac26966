package nn

import (
	"fmt"
	"math"
)

// The training loops run through four kernels. On amd64 they are SSE2
// assembly (kernels_amd64.s) that computes, lane by lane, exactly what
// the Go twins below compute: every sum keeps its order, every operation
// its operands, and nothing is fused, so a trained network is the same
// bit for bit with either. Elsewhere, and with the purego build tag, the
// twins are the kernels (kernels_purego.go).
//
// The checked wrappers here are the only callers of the kernels: the
// assembly has no bounds checks, so they check every length it relies on.

// affineT writes out[j] = b[j] + Σ_i w[i·len(out)+j]·x[i], each sum in
// input order. w is the layer's weight matrix stored input-major, so the
// weights of consecutive output units are adjacent and the kernel sums
// several units per pass over x.
func affineT(w, b, x, out []float64) {
	if len(b) != len(out) || len(w) != len(x)*len(out) {
		panic(fmt.Sprintf("nn: affineT sizes w %d, b %d, x %d, out %d", len(w), len(b), len(x), len(out)))
	}
	affineTKernel(w, b, x, out)
}

// backOutput back-propagates the logit gradient d through the output
// layer w (row-major, len(d) rows of len(hidden)): it adds d[o]·hidden[h]
// to gW[o·len(hidden)+h] and sets dHidden[h] to Σ_o d[o]·w[o·len(hidden)+h],
// summed from +0 in output order.
func backOutput(d, hidden, w, gW, dHidden []float64) {
	if len(dHidden) != len(hidden) || len(w) != len(d)*len(hidden) || len(gW) != len(w) {
		panic(fmt.Sprintf("nn: backOutput sizes d %d, hidden %d, w %d, gW %d, dHidden %d",
			len(d), len(hidden), len(w), len(gW), len(dHidden)))
	}
	backOutputKernel(d, hidden, w, gW, dHidden)
}

// backHidden adds the first layer's gradient for the hidden units listed
// in active, the ones the ReLU let through: dHidden[h] to gB[h] and
// dHidden[h]·x[i] to gW[h·len(x)+i]. A unit not listed adds nothing.
func backHidden(active []int, dHidden, x, gB, gW []float64) {
	if len(gB) != len(dHidden) || len(gW) != len(dHidden)*len(x) {
		panic(fmt.Sprintf("nn: backHidden sizes dHidden %d, x %d, gB %d, gW %d",
			len(dHidden), len(x), len(gB), len(gW)))
	}
	if !backHiddenKernel(active, dHidden, x, gB, gW) {
		panic(fmt.Sprintf("nn: backHidden lists a unit outside [0,%d)", len(dHidden)))
	}
}

// adamConsts holds the scalars of one Adam step. The assembly reads the
// fields by offset, so their order and types are fixed.
type adamConsts struct {
	inv        float64 // 1/batch size, scales the gradient sums
	l2         float64 // weight decay
	beta1, om1 float64 // β1 and 1−β1
	beta2, om2 float64 // β2 and 1−β2
	c1, c2     float64 // bias corrections 1−β1^t and 1−β2^t
	lr         float64
	eps        float64
}

// adamStep applies one Adam step to params from the gradient sums g and
// the moments m and v; decay adds the weight decay term.
func adamStep(params, g, m, v []float64, k *adamConsts, decay bool) {
	if len(g) != len(params) || len(m) != len(params) || len(v) != len(params) {
		panic(fmt.Sprintf("nn: adamStep sizes params %d, g %d, m %d, v %d", len(params), len(g), len(m), len(v)))
	}
	adamKernel(params, g, m, v, k, decay)
}

// affineTGo is affineTKernel's Go twin.
func affineTGo(w, b, x, out []float64) {
	n := len(out)
	for j := range out {
		s := b[j]
		for i, v := range x {
			s += w[i*n+j] * v
		}
		out[j] = s
	}
}

// backOutputGo is backOutputKernel's Go twin.
func backOutputGo(d, hidden, w, gW, dHidden []float64) {
	n := len(hidden)
	clear(dHidden)
	for o, do := range d {
		row, gRow := w[o*n:(o+1)*n], gW[o*n:(o+1)*n]
		for h, a := range hidden {
			gRow[h] += do * a
			dHidden[h] += do * row[h]
		}
	}
}

// backHiddenGo is backHiddenKernel's Go twin. It reports false at a
// listed index outside dHidden, as the kernel does.
func backHiddenGo(active []int, dHidden, x, gB, gW []float64) bool {
	n := len(x)
	for _, h := range active {
		if uint(h) >= uint(len(dHidden)) {
			return false
		}
		d := dHidden[h]
		gB[h] += d
		gRow := gW[h*n : (h+1)*n]
		for i, v := range x {
			gRow[i] += d * v
		}
	}
	return true
}

// adamGo is adamKernel's Go twin.
func adamGo(params, g, m, v []float64, k *adamConsts, decay bool) {
	for i := range params {
		grad := g[i] * k.inv
		if decay {
			grad += k.l2 * params[i]
		}
		m[i] = k.beta1*m[i] + k.om1*grad
		v[i] = k.beta2*v[i] + k.om2*grad*grad
		mHat := m[i] / k.c1
		vHat := v[i] / k.c2
		params[i] -= k.lr * mHat / (math.Sqrt(vHat) + k.eps)
	}
}
