package dsp

// Haar discrete wavelet transform. The paper's related work ([12], [16])
// discusses the DWT as the computationally heavier alternative to
// statistical and Fourier features; this implementation backs the
// feature-family ablation that justifies AdaSense's choice.
//
// A property worth noting (and demonstrated by the ablation): DWT subband
// boundaries sit at fs/2^(k+1) — they move with the sampling rate. Under
// heterogeneous sensor configurations the "same" subband means different
// physics at different rates, unlike Goertzel bins pinned to physical
// frequencies.

// HaarStep performs one Haar analysis step: approx gets the scaled
// pairwise sums of x, detail the scaled differences. len(x) must be even;
// approx and detail must each hold len(x)/2.
func HaarStep(x, approx, detail []float64) {
	n := len(x) / 2
	if len(x)%2 != 0 || len(approx) < n || len(detail) < n {
		panic("dsp: HaarStep size mismatch")
	}
	const invSqrt2 = 0.7071067811865476
	for i := 0; i < n; i++ {
		a, b := x[2*i], x[2*i+1]
		approx[i] = (a + b) * invSqrt2
		detail[i] = (a - b) * invSqrt2
	}
}

// DWT is a reusable Haar analysis workspace: all coefficients of a
// decomposition live in one backing array sized to the padded input, and
// Transform reuses it across calls, so steady-state use allocates
// nothing. A DWT is not safe for concurrent use.
type DWT struct {
	coeffs []float64 // work area (front half) ∥ band storage (back half)
	bands  [][]float64
}

// Transform decomposes x into `levels` detail bands plus a final
// approximation, zero-padding x to the next power of two first. It
// returns the detail coefficient slices from finest (level 1, highest
// frequencies) to coarsest, followed by the final approximation. levels
// is clamped to [1, log2(paddedLen)]. The bands alias the workspace and
// are valid only until the next call.
func (w *DWT) Transform(x []float64, levels int) [][]float64 {
	n := NextPow2(len(x))
	maxLevels := 0
	for m := n; m > 1; m >>= 1 {
		maxLevels++
	}
	if levels > maxLevels {
		levels = maxLevels
	}
	if levels < 1 {
		levels = 1
	}
	// The detail bands plus the final approximation hold at most n
	// coefficients total, so one 2n array fits the work area and every
	// band: cascading halves the work area in place while each level's
	// details land in the storage half.
	if cap(w.coeffs) < 2*n {
		w.coeffs = make([]float64, 2*n)
	}
	work, store := w.coeffs[:n], w.coeffs[n:2*n]
	copy(work, x)
	clear(work[len(x):])
	if cap(w.bands) < levels+1 {
		w.bands = make([][]float64, 0, levels+1)
	}
	out := w.bands[:0]
	cur, pos := work, 0
	for lv := 0; lv < levels; lv++ {
		half := len(cur) / 2
		detail := store[pos : pos+half : pos+half]
		pos += half
		// In-place lifting: the approximation lands in the front half of
		// cur. The write at index i trails every remaining read (2i and
		// 2i+1 are ≥ i+1 for i ≥ 1), so no unread sample is clobbered.
		HaarStep(cur, cur[:half], detail)
		out = append(out, detail)
		cur = cur[:half]
	}
	final := store[pos : pos+len(cur) : pos+len(cur)]
	copy(final, cur)
	out = append(out, final)
	w.bands = out
	return out
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
