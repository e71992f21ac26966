// Package mcu models the processing unit's cost of running the HAR
// pipeline: cycle counts for feature extraction, classifier inference and
// the intensity baseline's derivative computation, integrated into charge
// through a CC2640R2F-class current model.
//
// The paper's Section V-D argues that AdaSense avoids the data-processing
// overhead of the intensity-based approach (which must differentiate the
// raw signal every window on top of classification). That claim is an
// operation-count argument, so a cycle/current model is the faithful
// substitute for the missing hardware.
package mcu

// Model holds the electrical and timing constants of the host MCU. The
// defaults approximate a TI CC2640R2F: an ARM Cortex-M3 at 48 MHz drawing
// about 61 µA/MHz active and ~1 µA in standby.
type Model struct {
	ClockMHz        float64
	ActiveCurrentUA float64
	SleepCurrentUA  float64
}

// Default returns CC2640R2F-class constants.
func Default() Model {
	return Model{ClockMHz: 48, ActiveCurrentUA: 2930, SleepCurrentUA: 1}
}

// Cycle costs of primitive operations on a Cortex-M3-class core with a
// software floating-point path (no FPU on the CC2640R2F): conservative
// averages rather than exact instruction timings.
const (
	cyclesAdd  = 8   // software float add
	cyclesMul  = 10  // software float multiply
	cyclesMAC  = 18  // multiply-accumulate (mul+add)
	cyclesDiv  = 40  // software float divide
	cyclesSqrt = 90  // software sqrt
	cyclesExp  = 200 // software exp (softmax)
	cyclesAbs  = 2
	cyclesCmp  = 4
)

// SecondsFor converts a cycle count to seconds at the model's clock.
func (m Model) SecondsFor(cycles uint64) float64 {
	return float64(cycles) / (m.ClockMHz * 1e6)
}

// ActiveChargeUC returns the charge (µC) consumed executing the given
// cycle count at the active current.
func (m Model) ActiveChargeUC(cycles uint64) float64 {
	return m.ActiveCurrentUA * m.SecondsFor(cycles)
}

// SleepChargeUC returns the charge (µC) consumed sleeping for durSec
// seconds.
func (m Model) SleepChargeUC(durSec float64) float64 {
	if durSec < 0 {
		durSec = 0
	}
	return m.SleepCurrentUA * durSec
}

// FeatureExtractionCycles returns the cycle cost of the AdaSense feature
// set on one 3-axis batch of n samples with the given number of spectral
// bins: per axis, a mean pass, a detrend+variance pass with one sqrt, and
// one Goertzel recursion (one MAC and one add per sample) per bin.
func FeatureExtractionCycles(n, bins int) uint64 {
	if n <= 0 {
		return 0
	}
	perAxis := uint64(n)*cyclesAdd + cyclesDiv + // mean
		uint64(n)*(cyclesAdd+cyclesMAC) + cyclesDiv + cyclesSqrt + // variance/std
		uint64(bins)*(uint64(n)*(cyclesMAC+cyclesAdd)+3*cyclesMul+cyclesSqrt+cyclesDiv) // Goertzel bins
	return 3 * perAxis
}

// InferenceCycles returns the cycle cost of one forward pass of the
// 2-layer MLP: standardization, dense layers as MACs, ReLU compares and a
// softmax.
func InferenceCycles(in, hidden, out int) uint64 {
	std := uint64(in) * (cyclesAdd + cyclesDiv)
	l1 := uint64(hidden)*uint64(in)*cyclesMAC + uint64(hidden)*cyclesCmp
	l2 := uint64(out) * uint64(hidden) * cyclesMAC
	softmax := uint64(out)*(cyclesExp+cyclesAdd+cyclesDiv) + uint64(out)*cyclesCmp
	return std + l1 + l2 + softmax
}

// WaveletCycles returns the cycle cost of a Haar decomposition with the
// given depth on one 3-axis batch of n samples, plus the band-energy
// accumulation: the cascade halves the work each level (≤ 2n butterfly
// ops), and every coefficient is squared and accumulated once.
func WaveletCycles(n, levels int) uint64 {
	if n <= 0 {
		return 0
	}
	padded := uint64(1)
	for padded < uint64(n) {
		padded <<= 1
	}
	var butterflies uint64
	cur := padded
	for lv := 0; lv < levels && cur > 1; lv++ {
		butterflies += cur / 2
		cur /= 2
	}
	perAxis := butterflies*(2*cyclesAdd+2*cyclesMul) + // analysis steps
		padded*cyclesMAC + uint64(levels+1)*cyclesDiv // band energies
	return 3 * perAxis
}

// DerivativeCycles returns the cycle cost of the intensity-based
// baseline's activity-intensity computation: the mean absolute first
// difference over each of the 3 axes (one subtract, abs and accumulate per
// sample).
func DerivativeCycles(n int) uint64 {
	if n < 2 {
		return 0
	}
	perAxis := uint64(n-1)*(cyclesAdd+cyclesAbs+cyclesAdd) + cyclesDiv
	return 3 * perAxis
}
