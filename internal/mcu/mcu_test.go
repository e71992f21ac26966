package mcu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSecondsFor(t *testing.T) {
	m := Model{ClockMHz: 48, ActiveCurrentUA: 2930, SleepCurrentUA: 1}
	if got := m.SecondsFor(48_000_000); math.Abs(got-1) > 1e-12 {
		t.Fatalf("48M cycles at 48 MHz = %v s, want 1", got)
	}
}

func TestActiveChargeUC(t *testing.T) {
	m := Default()
	// One second of full-speed execution.
	cycles := uint64(m.ClockMHz * 1e6)
	if got := m.ActiveChargeUC(cycles); math.Abs(got-m.ActiveCurrentUA) > 1e-9 {
		t.Fatalf("1 s active charge = %v µC, want %v", got, m.ActiveCurrentUA)
	}
}

func TestSleepChargeNonNegative(t *testing.T) {
	m := Default()
	if m.SleepChargeUC(-5) != 0 {
		t.Fatal("negative duration should clamp to 0")
	}
	if got := m.SleepChargeUC(10); math.Abs(got-10*m.SleepCurrentUA) > 1e-12 {
		t.Fatalf("sleep charge = %v", got)
	}
}

// TestAverageCurrentBounds checks the charge accounting over one second
// of duty cycle: any split between work and sleep draws an average
// current between the sleep and the active current, and the extremes
// draw exactly those.
func TestAverageCurrentBounds(t *testing.T) {
	m := Default()
	perSec := uint64(m.ClockMHz * 1e6)
	avg := func(cycles uint64) float64 {
		return m.ActiveChargeUC(cycles) + m.SleepChargeUC(1-m.SecondsFor(cycles))
	}
	f := func(loadRaw uint32) bool {
		a := avg(uint64(loadRaw) % (perSec + 1))
		return a >= m.SleepCurrentUA-1e-9 && a <= m.ActiveCurrentUA+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := avg(0); got != m.SleepCurrentUA {
		t.Fatalf("idle current = %v", got)
	}
	if got := avg(perSec); got != m.ActiveCurrentUA {
		t.Fatalf("saturated current = %v", got)
	}
}

func TestFeatureExtractionCyclesScaleWithBatch(t *testing.T) {
	small := FeatureExtractionCycles(25, 3)
	large := FeatureExtractionCycles(200, 3)
	if large <= small {
		t.Fatal("more samples should cost more cycles")
	}
	ratio := float64(large) / float64(small)
	if ratio < 4 || ratio > 9 {
		t.Fatalf("8× batch costs %.1f× cycles; expected roughly linear", ratio)
	}
	if FeatureExtractionCycles(0, 3) != 0 {
		t.Fatal("empty batch should cost nothing")
	}
}

func TestFeatureExtractionCyclesScaleWithBins(t *testing.T) {
	if FeatureExtractionCycles(100, 6) <= FeatureExtractionCycles(100, 3) {
		t.Fatal("more bins should cost more cycles")
	}
}

func TestInferenceCyclesScaleWithWidth(t *testing.T) {
	if InferenceCycles(15, 64, 6) <= InferenceCycles(15, 32, 6) {
		t.Fatal("wider hidden layer should cost more")
	}
}

func TestDerivativeCheaperThanPipelineButNotFree(t *testing.T) {
	// Sanity for the Section V-D comparison: the derivative is an extra
	// per-window cost of the same order as feature extraction for large
	// batches.
	n := 200
	d := DerivativeCycles(n)
	if d == 0 {
		t.Fatal("derivative on 200 samples should cost cycles")
	}
	fe := FeatureExtractionCycles(n, 3)
	if d >= fe {
		t.Fatalf("derivative (%d) should cost less than full feature extraction (%d)", d, fe)
	}
	if DerivativeCycles(1) != 0 {
		t.Fatal("derivative of single sample should be free")
	}
}

func TestPipelineRunsInRealTimeOnMCU(t *testing.T) {
	// The per-second workload (200-sample window features + inference)
	// must fit comfortably in one second of MCU time, or the deployment
	// story collapses.
	m := Default()
	cycles := FeatureExtractionCycles(200, 3) + InferenceCycles(15, 32, 6)
	if sec := m.SecondsFor(cycles); sec > 0.1 {
		t.Fatalf("per-window processing takes %v s on the MCU", sec)
	}
}

func TestWaveletCostlierThanGoertzel(t *testing.T) {
	// The related-work premise: DWT features cost more than the three
	// Goertzel bins AdaSense extracts (which scale with bins, not depth).
	n := 200
	goertzelOnly := FeatureExtractionCycles(n, 3) - FeatureExtractionCycles(n, 0)
	wavelet := WaveletCycles(n, 5)
	if wavelet <= goertzelOnly/2 {
		t.Fatalf("wavelet cycles %d implausibly below Goertzel bins %d", wavelet, goertzelOnly)
	}
	if WaveletCycles(0, 5) != 0 {
		t.Fatal("empty batch should cost nothing")
	}
	if WaveletCycles(200, 6) <= WaveletCycles(200, 1) {
		t.Fatal("deeper decomposition should cost more")
	}
}
