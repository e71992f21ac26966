package dsp

import "math"

// Goertzel computes the magnitude of the discrete-time Fourier transform of
// x at the physical frequency freqHz, given the sampling rate fsHz, using
// the Goertzel second-order recursion. The result is normalized by the
// number of samples so that a unit-amplitude sinusoid at freqHz yields a
// magnitude of ~0.5 independent of the batch length.
//
// Targeting a *physical* frequency rather than an FFT bin index is the key
// to AdaSense's rate-invariant features: a 2-second batch holds 200 samples
// at 100 Hz but only 12 at 6.25 Hz, yet "spectral content at 1 Hz" means
// the same thing for both, so a single classifier can consume either.
func Goertzel(x []float64, freqHz, fsHz float64) float64 {
	n := len(x)
	if n == 0 || fsHz <= 0 {
		return 0
	}
	coeff := GoertzelCoeff(freqHz, fsHz)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	return GoertzelMagnitude(s1, s2, coeff, n)
}

// GoertzelCoeff returns the recursion coefficient 2·cos(ω) of the
// normalized angular frequency ω = 2π·freqHz/fsHz. The recursion is exact
// for any real ω, not only for integer bin centers.
func GoertzelCoeff(freqHz, fsHz float64) float64 {
	omega := 2 * math.Pi * freqHz / fsHz
	return 2 * math.Cos(omega)
}

// GoertzelMagnitude returns the normalized magnitude of an n-sample
// Goertzel recursion with coefficient coeff that ended in the states s1
// (last output) and s2 (the one before). A kernel that runs several
// recursions in one pass finishes each with it.
func GoertzelMagnitude(s1, s2, coeff float64, n int) float64 {
	// Power of the resonator state, then magnitude.
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0 // guard tiny negative rounding residue
	}
	return math.Sqrt(power) / float64(n)
}
