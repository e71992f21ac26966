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

	"adasense/internal/dsp"
	"adasense/internal/sensor"
)

// DefaultBinFreqsHz is the paper's spectral feature set: the components up
// to 3 Hz at 1 Hz spacing.
func DefaultBinFreqsHz() []float64 { return []float64{1, 2, 3} }

// Extractor computes feature vectors from sensor batches. An Extractor
// owns scratch buffers and is NOT safe for concurrent use; create one per
// goroutine.
type Extractor struct {
	binFreqs []float64
	scratch  []float64
	bins     []float64
}

// NewExtractor returns an extractor using the given spectral bin
// frequencies (nil selects DefaultBinFreqsHz). Bin frequencies must be
// positive.
func NewExtractor(binFreqsHz []float64) (*Extractor, error) {
	if binFreqsHz == nil {
		binFreqsHz = DefaultBinFreqsHz()
	}
	for _, f := range binFreqsHz {
		if f <= 0 {
			return nil, fmt.Errorf("features: non-positive bin frequency %v", f)
		}
	}
	return &Extractor{
		binFreqs: append([]float64(nil), binFreqsHz...),
		bins:     make([]float64, len(binFreqsHz)),
	}, nil
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
// first, then y, then z.
func (e *Extractor) Extract(b *sensor.Batch, dst []float64) []float64 {
	size := e.Size()
	if cap(dst) < size {
		dst = make([]float64, size)
	}
	dst = dst[:size]
	perAxis := 2 + len(e.binFreqs)
	for ax := 0; ax < 3; ax++ {
		samples := b.Axis(ax)
		if cap(e.scratch) < len(samples) {
			e.scratch = make([]float64, len(samples))
		}
		e.scratch = e.scratch[:len(samples)]
		copy(e.scratch, samples)

		base := ax * perAxis
		// Detrend before spectral estimation so the gravity offset does
		// not leak into the low-frequency bins; the removed mean IS the
		// first feature.
		mean := dsp.Detrend(e.scratch)
		dst[base] = mean
		dst[base+1] = dsp.StdDev(e.scratch)
		e.bins = dsp.GoertzelBins(e.scratch, e.binFreqs, b.Config.FreqHz, e.bins)
		copy(dst[base+2:base+2+len(e.bins)], e.bins)
	}
	return dst
}
