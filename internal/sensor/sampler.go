package sensor

import (
	"fmt"
	"math"

	"adasense/internal/rng"
	"adasense/internal/synth"
)

// NoiseModel holds the stochastic constants of the reading model.
type NoiseModel struct {
	// SensorNoiseStd is the accelerometer's own broadband noise standard
	// deviation per internal sample, m/s². It adds in quadrature with the
	// activity's body tremor; the sum is attenuated by sqrt(averaging
	// window).
	SensorNoiseStd float64
	// FullScaleG is the measurement range in g (readings clamp to
	// ±FullScaleG·g).
	FullScaleG float64
	// Bits is the ADC resolution; readings quantize to 2^Bits levels
	// across the full scale. Zero disables quantization.
	Bits int
}

// DefaultNoiseModel returns BMI160-class constants: ±8 g range, 16-bit
// resolution, and a broadband noise floor of 0.35 m/s² per 1.6 kHz
// internal sample.
func DefaultNoiseModel() NoiseModel {
	return NoiseModel{SensorNoiseStd: 0.35, FullScaleG: 8, Bits: 16}
}

// lsb returns the quantization step in m/s², or 0 when disabled.
func (n NoiseModel) lsb() float64 {
	if n.Bits <= 0 {
		return 0
	}
	return 2 * n.FullScaleG * synth.Gravity / float64(uint64(1)<<uint(n.Bits))
}

// quantize clamps v to the full-scale range and rounds to the ADC grid.
func (n NoiseModel) quantize(v float64) float64 {
	limit := n.FullScaleG * synth.Gravity
	if v > limit {
		v = limit
	} else if v < -limit {
		v = -limit
	}
	step := n.lsb()
	if step == 0 {
		return v
	}
	return math.Round(v/step) * step
}

// Batch is a contiguous run of 3-axis sensor readings produced under a
// single configuration. X, Y, Z have equal length.
type Batch struct {
	Config  Config
	StartAt float64 // time of the first sample, seconds
	X, Y, Z []float64
}

// Len returns the number of samples in the batch.
func (b *Batch) Len() int { return len(b.X) }

// MaxAbsReading is the largest reading magnitude Validate accepts, in
// m/s²: 1000 g. No accelerometer measures that far (high-g parts stop
// at ±400 g), so no reading a real sensor reports is refused, while a
// finite value beyond it is a corrupt sample whose square would swamp
// or overflow the window statistics.
const MaxAbsReading = 1000 * synth.Gravity

// BatchError reports a batch that Validate refuses.
type BatchError struct{ Reason string }

func (e *BatchError) Error() string { return "sensor: invalid batch: " + e.Reason }

// Validate checks that b holds equal-length, non-empty axes whose every
// reading is finite and within ±MaxAbsReading. It returns a *BatchError
// describing the first fault, or nil.
func (b *Batch) Validate() error {
	if b == nil {
		return &BatchError{Reason: "no batch"}
	}
	n := len(b.X)
	if n == 0 || len(b.Y) != n || len(b.Z) != n {
		return &BatchError{Reason: fmt.Sprintf("axes need equal non-zero lengths, got %d/%d/%d", n, len(b.Y), len(b.Z))}
	}
	for ax, samples := range [3][]float64{b.X, b.Y, b.Z} {
		for i, v := range samples {
			// One comparison refuses NaN, ±Inf and out-of-range values.
			if !(math.Abs(v) <= MaxAbsReading) {
				return &BatchError{Reason: fmt.Sprintf("%c[%d] = %g is not a finite reading within ±%g m/s²", "xyz"[ax], i, v, MaxAbsReading)}
			}
		}
	}
	return nil
}

// Duration returns the time span covered by the batch in seconds.
func (b *Batch) Duration() float64 { return float64(b.Len()) / b.Config.FreqHz }

// Axis returns the samples of axis ax (0=x, 1=y, 2=z).
func (b *Batch) Axis(ax int) []float64 {
	switch ax {
	case 0:
		return b.X
	case 1:
		return b.Y
	case 2:
		return b.Z
	default:
		panic("sensor: axis out of range")
	}
}

// Append concatenates other onto b. The configurations must match.
func (b *Batch) Append(other *Batch) {
	if b.Config != other.Config {
		panic("sensor: appending batches with different configs")
	}
	b.X = append(b.X, other.X...)
	b.Y = append(b.Y, other.Y...)
	b.Z = append(b.Z, other.Z...)
}

// Sampler draws noisy, quantized readings from a synthetic motion signal
// under a given configuration. It is the software stand-in for the IMU's
// data path.
type Sampler struct {
	Noise NoiseModel
	r     *rng.Source
}

// NewSampler returns a sampler with the given noise model drawing
// stochastic terms from r.
func NewSampler(noise NoiseModel, r *rng.Source) *Sampler {
	return &Sampler{Noise: noise, r: r}
}

// ReadingStd returns the standard deviation of one output reading's noise
// under cfg when the body tremor level is tremor: the quadrature sum of
// sensor noise and tremor, attenuated by sqrt(averaging window).
func (s *Sampler) ReadingStd(cfg Config, tremor float64) float64 {
	raw := math.Sqrt(s.Noise.SensorNoiseStd*s.Noise.SensorNoiseStd + tremor*tremor)
	return raw / math.Sqrt(float64(cfg.AvgWindow))
}

// Sample produces the batch of readings a sensor configured as cfg would
// emit from motion m over [t0, t1). Each reading at time t is the exact
// analytic average of the deterministic signal over the averaging window
// [t-w, t], plus Gaussian reading noise, clamped and quantized to the ADC
// grid.
//
// Successive readings are treated as having independent noise even when
// averaging windows overlap (high rate × wide window); the correlation
// this ignores only affects normal-mode points, whose classification
// accuracy is the saturated best case anyway.
func (s *Sampler) Sample(m *synth.Motion, cfg Config, t0, t1 float64) *Batch {
	n := cfg.BatchSize(t1 - t0)
	b := &Batch{
		Config:  cfg,
		StartAt: t0,
		X:       make([]float64, n),
		Y:       make([]float64, n),
		Z:       make([]float64, n),
	}
	period := 1 / cfg.FreqHz
	w := cfg.AvgWindowSec()
	// σ depends on t only through the tremor, which changes at segment
	// boundaries: recompute it only then. NaN matches nothing, so the
	// first reading always computes it.
	tremor, sigma := math.NaN(), 0.0
	for i := 0; i < n; i++ {
		t := t0 + float64(i)*period
		lo := t - w
		if lo < 0 {
			lo = 0
		}
		v := m.AvgEval(lo, t)
		if tr := m.Tremor(t); tr != tremor {
			tremor, sigma = tr, s.ReadingStd(cfg, tr)
		}
		for ax := 0; ax < 3; ax++ {
			reading := v[ax] + s.r.NormSigma(0, sigma)
			switch ax {
			case 0:
				b.X[i] = s.Noise.quantize(reading)
			case 1:
				b.Y[i] = s.Noise.quantize(reading)
			default:
				b.Z[i] = s.Noise.quantize(reading)
			}
		}
	}
	return b
}
