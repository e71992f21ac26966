package experiments

import (
	"math"
	"slices"
	"testing"

	"adasense/internal/dataset"
	"adasense/internal/features"
	"adasense/internal/rng"
)

// projectionWindows spans every (configuration × activity) cell twice.
const projectionWindows = 48

// generate samples a projectionWindows corpus with ext from a fixed
// stream, the same stream on every call.
func generate(t *testing.T, ext dataset.FeatureExtractor) *dataset.Corpus {
	t.Helper()
	c, err := dataset.Generate(dataset.GenSpec{Windows: projectionWindows, Extractor: ext}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameProjection fails t unless projecting wide onto cols gives want's
// inputs and labels bit for bit.
func sameProjection(t *testing.T, name string, wide *dataset.Corpus, cols []int, want *dataset.Corpus) {
	t.Helper()
	X, Y := project(wide, cols)
	wx, wy := want.XY()
	if !slices.Equal(Y, wy) {
		t.Fatalf("%s: labels differ", name)
	}
	for i := range wx {
		if len(X[i]) != len(wx[i]) {
			t.Fatalf("%s: window %d has %d features, want %d", name, i, len(X[i]), len(wx[i]))
		}
		for j := range wx[i] {
			if math.Float64bits(X[i][j]) != math.Float64bits(wx[i][j]) {
				t.Fatalf("%s: window %d feature %d = %v, want %v", name, i, j, X[i][j], wx[i][j])
			}
		}
	}
}

// TestFeatureAblationProjection: the k-bin columns of a 6-bin corpus are
// the corpus a k-bin extractor samples from the same stream, for every
// k FeatureAblation trains.
func TestFeatureAblationProjection(t *testing.T) {
	freqs := []float64{1, 2, 3, 4, 5, 6}
	wide := generate(t, features.MustExtractor(freqs))
	for k := 0; k <= len(freqs); k++ {
		own, err := dataset.Generate(dataset.GenSpec{Windows: projectionWindows, BinFreqsHz: freqs[:k:k]}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		sameProjection(t, "bins", wide, binCols(k, len(freqs)), own)
	}
}

// TestFeatureFamilyProjection: each family's columns of the Fourier-3 +
// wavelet-5 corpus are the corpus the family's own extractor samples
// from the same stream.
func TestFeatureFamilyProjection(t *testing.T) {
	fourier := features.MustExtractor(nil)
	wavelet, err := features.NewWaveletExtractor(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := binCols(0, 3); !slices.Equal(got, []int{0, 1, 5, 6, 10, 11}) {
		t.Fatalf("statistical columns = %v", got)
	}
	wide := generate(t, concatExtractor{fourier, wavelet})
	nf := fourier.Size()
	sameProjection(t, "statistical", wide, binCols(0, 3), generate(t, features.MustExtractor([]float64{})))
	sameProjection(t, "fourier-3", wide, colRange(0, nf), generate(t, fourier))
	sameProjection(t, "wavelet-5", wide, colRange(nf, nf+wavelet.Size()), generate(t, wavelet))
}
