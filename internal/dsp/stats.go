// Package dsp is the signal-processing substrate for the AdaSense
// reproduction: the descriptive statistics and the single-bin Goertzel
// DFT behind the paper's features, and the Haar DWT behind the
// feature-family ablation. Everything operates on float64 slices and is
// allocation-free where the call patterns are hot (per-window feature
// extraction).
package dsp

import "math"

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Variance returns the population variance of x (dividing by N), or 0 for
// slices shorter than 1. The two-pass formulation is used for numerical
// stability.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	sum := 0.0
	for _, v := range x {
		d := v - m
		sum += d * d
	}
	return sum / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// MeanAbsDiff returns the mean absolute first difference of x,
// mean(|x[i+1]-x[i]|). It is the signal-intensity measure used by the
// intensity-based baseline (NK et al. [8] in the paper): static activities
// have small derivatives, locomotion large ones. Returns 0 for slices with
// fewer than two samples.
func MeanAbsDiff(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	sum := 0.0
	for i := 1; i < len(x); i++ {
		sum += math.Abs(x[i] - x[i-1])
	}
	return sum / float64(len(x)-1)
}

// Magnitude3 returns sqrt(x²+y²+z²) for each sample triple. The three input
// slices must have equal length.
func Magnitude3(x, y, z []float64) []float64 {
	if len(x) != len(y) || len(y) != len(z) {
		panic("dsp: Magnitude3 length mismatch")
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = math.Sqrt(x[i]*x[i] + y[i]*y[i] + z[i]*z[i])
	}
	return out
}

// Detrend subtracts the mean of x from every element, in place, and returns
// the removed mean. Feature extraction detrends before spectral estimation
// so the gravity component does not leak into the low-frequency bins.
func Detrend(x []float64) float64 {
	m := Mean(x)
	for i := range x {
		x[i] -= m
	}
	return m
}
