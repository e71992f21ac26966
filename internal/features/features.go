// Package features implements AdaSense's rate-invariant feature extraction
// (Section III-B of the paper).
//
// The feature vector for a batch of 3-axis readings is, per axis:
//
//   - the mean (captures gravity orientation — separates postures),
//   - the standard deviation (captures motion intensity), and
//   - the magnitudes of the Fourier transform at a small set of fixed
//     physical frequencies, by default 1, 2 and 3 Hz — the paper's "first
//     three coefficients ... representing the frequency components up to
//     3 Hz" (captures gait cadence).
//
// Crucially the vector's size does not depend on the batch length: a 2-s
// batch holds 200 samples at 100 Hz and 12 at 6.25 Hz, but both map to the
// same 15 numbers with the same physical meaning, which is what lets one
// classifier serve every sensor configuration. The spectral bins are
// evaluated with the Goertzel recursion at the target physical frequencies
// rather than at FFT bin indices, so the bins stay aligned across sampling
// rates.
package features

import (
	"fmt"
	"math"
	"slices"

	"adasense/internal/dsp"
	"adasense/internal/sensor"
)

// DefaultBinFreqsHz is the paper's spectral feature set: the components up
// to 3 Hz at 1 Hz spacing.
func DefaultBinFreqsHz() []float64 { return []float64{1, 2, 3} }

// Extractor computes feature vectors from sensor batches. It is
// immutable after NewExtractor, so one Extractor is safe for concurrent
// use.
type Extractor struct {
	binFreqs []float64
	// rates are the distinct Table I sampling rates, and coeffs holds
	// dsp.GoertzelCoeff(binFreqs[k], rates[r]) at r*len(binFreqs)+k.
	rates  []float64
	coeffs []float64
}

// NewExtractor returns an extractor using the given spectral bin
// frequencies (nil selects DefaultBinFreqsHz). Bin frequencies must be
// positive. The Goertzel coefficients of every bin are computed here
// for each Table I sampling rate; Extract computes them for any other
// rate.
func NewExtractor(binFreqsHz []float64) (*Extractor, error) {
	if binFreqsHz == nil {
		binFreqsHz = DefaultBinFreqsHz()
	}
	for _, f := range binFreqsHz {
		if f <= 0 {
			return nil, fmt.Errorf("features: non-positive bin frequency %v", f)
		}
	}
	e := &Extractor{binFreqs: append([]float64(nil), binFreqsHz...)}
	for _, cfg := range sensor.TableI() {
		if !slices.Contains(e.rates, cfg.FreqHz) {
			e.rates = append(e.rates, cfg.FreqHz)
			for _, f := range e.binFreqs {
				e.coeffs = append(e.coeffs, dsp.GoertzelCoeff(f, cfg.FreqHz))
			}
		}
	}
	return e, nil
}

// coeffsAt returns the precomputed Goertzel coefficients of every bin at
// sampling rate fs, or nil if fs is not a Table I rate.
func (e *Extractor) coeffsAt(fs float64) []float64 {
	k := len(e.binFreqs)
	for r, rate := range e.rates {
		if rate == fs {
			return e.coeffs[r*k : (r+1)*k]
		}
	}
	return nil
}

// coeff returns bin k's Goertzel coefficient at rate fs: from pre, the
// coeffsAt result, when there is one.
func (e *Extractor) coeff(pre []float64, k int, fs float64) float64 {
	if pre != nil {
		return pre[k]
	}
	return dsp.GoertzelCoeff(e.binFreqs[k], fs)
}

// MustExtractor is NewExtractor that panics on error.
func MustExtractor(binFreqsHz []float64) *Extractor {
	e, err := NewExtractor(binFreqsHz)
	if err != nil {
		panic(err)
	}
	return e
}

// Size returns the feature vector length: 3 axes × (mean, std, |bins|).
func (e *Extractor) Size() int { return 3 * (2 + len(e.binFreqs)) }

// BinFreqsHz returns a copy of the spectral bin frequencies.
func (e *Extractor) BinFreqsHz() []float64 { return append([]float64(nil), e.binFreqs...) }

// Extract computes the feature vector of batch b into dst (reused when
// large enough) and returns it. Each axis contributes mean, standard
// deviation and then one magnitude per bin in BinFreqsHz order; x comes
// first, then y, then z. The three axes must have equal length, as
// sensor.Batch.Validate requires; an empty batch gives all zeros.
//
// The features are those of detrending each axis (dsp.Detrend), then
// taking dsp.StdDev and one dsp.Goertzel per bin of the detrended copy,
// bit for bit. Extract keeps no copy: one pass sums the three axes, one
// sums their detrended values and one their squared deviations, each
// axis in sample order, and the spectral passes run three bins at a
// time, recomputing each detrended value x[i]−mean with the very
// subtraction dsp.Detrend would store. Every sum thus adds the same
// operands in the same order as the one-axis, one-bin loops.
func (e *Extractor) Extract(b *sensor.Batch, dst []float64) []float64 {
	size := e.Size()
	if cap(dst) < size {
		dst = make([]float64, size)
	}
	dst = dst[:size]
	n := len(b.X)
	if len(b.Y) != n || len(b.Z) != n {
		panic(fmt.Sprintf("features: ragged batch %d/%d/%d", n, len(b.Y), len(b.Z)))
	}
	if n == 0 {
		clear(dst)
		return dst
	}
	xs, ys, zs := b.X, b.Y[:n], b.Z[:n] // lengths the compiler can see: no bounds checks below
	fn := float64(n)

	// Detrend before spectral estimation so the gravity offset does not
	// leak into the low-frequency bins; the removed mean IS the first
	// feature.
	var sx, sy, sz float64
	for i, x := range xs {
		sx += x
		sy += ys[i]
		sz += zs[i]
	}
	mx, my, mz := sx/fn, sy/fn, sz/fn
	// The detrended values' own mean, which dsp.Variance subtracts.
	var dx, dy, dz float64
	for i, x := range xs {
		dx += x - mx
		dy += ys[i] - my
		dz += zs[i] - mz
	}
	cx, cy, cz := dx/fn, dy/fn, dz/fn
	var vx, vy, vz float64
	for i, x := range xs {
		ex := x - mx - cx
		ey := ys[i] - my - cy
		ez := zs[i] - mz - cz
		vx += ex * ex
		vy += ey * ey
		vz += ez * ez
	}
	perAxis := 2 + len(e.binFreqs)
	dst[0], dst[1] = mx, math.Sqrt(vx/fn)
	dst[perAxis], dst[perAxis+1] = my, math.Sqrt(vy/fn)
	dst[2*perAxis], dst[2*perAxis+1] = mz, math.Sqrt(vz/fn)

	fs := b.Config.FreqHz
	if fs <= 0 { // dsp.Goertzel's guard: no spectrum without a rate
		for ax := 0; ax < 3; ax++ {
			clear(dst[ax*perAxis+2 : (ax+1)*perAxis])
		}
		return dst
	}
	axes := [3][]float64{xs, ys, zs}
	means := [3]float64{mx, my, mz}
	pre := e.coeffsAt(fs)
	k := 0
	for ; k+2 < len(e.binFreqs); k += 3 {
		c0, c1, c2 := e.coeff(pre, k, fs), e.coeff(pre, k+1, fs), e.coeff(pre, k+2, fs)
		for ax, samples := range axes {
			m := means[ax]
			var a1, a2, b1, b2, d1, d2 float64
			for _, x := range samples {
				v := x - m
				a1, a2 = v+c0*a1-a2, a1
				b1, b2 = v+c1*b1-b2, b1
				d1, d2 = v+c2*d1-d2, d1
			}
			base := ax*perAxis + 2 + k
			dst[base] = dsp.GoertzelMagnitude(a1, a2, c0, n)
			dst[base+1] = dsp.GoertzelMagnitude(b1, b2, c1, n)
			dst[base+2] = dsp.GoertzelMagnitude(d1, d2, c2, n)
		}
	}
	for ; k < len(e.binFreqs); k++ {
		c := e.coeff(pre, k, fs)
		for ax, samples := range axes {
			m := means[ax]
			var s1, s2 float64
			for _, x := range samples {
				v := x - m
				s1, s2 = v+c*s1-s2, s1
			}
			dst[ax*perAxis+2+k] = dsp.GoertzelMagnitude(s1, s2, c, n)
		}
	}
	return dst
}
