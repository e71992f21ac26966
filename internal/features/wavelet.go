package features

import (
	"fmt"

	"adasense/internal/dsp"
	"adasense/internal/sensor"
)

// WaveletExtractor is the DWT-based alternative feature set the paper's
// related work discusses ([12], [16]): per axis, mean and σ plus the Haar
// subband energies. It exists for the feature-family ablation; AdaSense
// itself uses Extractor.
//
// Unlike the Goertzel bins, DWT subband edges sit at fs/2^(k+1): they move
// with the sampling rate, so under heterogeneous configurations the same
// feature slot carries different physics — the weakness the ablation
// quantifies.
//
// A WaveletExtractor owns scratch buffers and is NOT safe for concurrent
// use.
type WaveletExtractor struct {
	levels  int
	scratch []float64
	dwt     dsp.DWT
}

// NewWaveletExtractor returns an extractor with the given decomposition
// depth (1..8).
func NewWaveletExtractor(levels int) (*WaveletExtractor, error) {
	if levels < 1 || levels > 8 {
		return nil, fmt.Errorf("features: wavelet levels %d outside 1..8", levels)
	}
	return &WaveletExtractor{levels: levels}, nil
}

// Size returns the feature vector length: 3 axes × (mean, std, levels+1
// band energies).
func (e *WaveletExtractor) Size() int { return 3 * (2 + e.levels + 1) }

// Extract computes the wavelet feature vector of batch b into dst (reused
// when large enough).
func (e *WaveletExtractor) Extract(b *sensor.Batch, dst []float64) []float64 {
	size := e.Size()
	if cap(dst) < size {
		dst = make([]float64, size)
	}
	dst = dst[:size]
	perAxis := 2 + e.levels + 1
	for ax := 0; ax < 3; ax++ {
		samples := b.Axis(ax)
		if cap(e.scratch) < len(samples) {
			e.scratch = make([]float64, len(samples))
		}
		e.scratch = e.scratch[:len(samples)]
		copy(e.scratch, samples)

		base := ax * perAxis
		mean := dsp.Detrend(e.scratch)
		dst[base] = mean
		dst[base+1] = dsp.StdDev(e.scratch)
		// Band energies straight from the reusable DWT workspace — the
		// steady-state extraction path performs no allocations. Short
		// batches clamp the decomposition depth, so the tail band slots
		// are zeroed up front.
		for i := base + 2; i < base+perAxis; i++ {
			dst[i] = 0
		}
		if len(e.scratch) == 0 {
			continue
		}
		bands := e.dwt.Transform(e.scratch, e.levels)
		inv := 1 / float64(len(e.scratch))
		for i, band := range bands {
			sum := 0.0
			for _, c := range band {
				sum += c * c
			}
			dst[base+2+i] = sum * inv
		}
	}
	return dst
}
