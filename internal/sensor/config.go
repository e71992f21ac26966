// Package sensor models a BMI160-class 3-axis accelerometer: Table I's
// sixteen (sampling frequency, averaging window) configurations, the
// normal/low-power operating modes, a duty-cycle current model, an
// averaging noise model and a streaming sampler that reads from a
// synth.Motion signal.
//
// The real BMI160 and its host board are not available in this
// reproduction; the model keeps the two first-principles properties the
// paper's argument rests on:
//
//   - power: in low-power mode the sensor duty-cycles, staying awake for
//     (averaging window / internal rate + wake overhead) per output sample,
//     so current scales with sampleRate × onTime and the averaging window
//     becomes a power knob (the paper's central observation);
//   - noise: each output sample averages w internal samples, so broadband
//     noise shrinks as 1/sqrt(w) and narrow windows buy power at the cost
//     of accuracy.
package sensor

import (
	"fmt"
	"strconv"
	"strings"
)

// InternalRateHz is the sensor's internal sampling rate used to fill the
// averaging window (BMI160-class parts sample internally at 1.6 kHz).
const InternalRateHz = 1600.0

// Config is one accelerometer operating point: output data rate and
// averaging window length in internal samples.
type Config struct {
	FreqHz    float64 // output data rate, Hz
	AvgWindow int     // internal samples averaged per output sample
}

// Name returns the paper's label for the configuration, e.g. "F100_A128"
// or "F12.5_A16".
func (c Config) Name() string { return string(c.AppendName(nil)) }

// AppendName appends Name's label to dst.
func (c Config) AppendName(dst []byte) []byte {
	dst = append(dst, 'F')
	dst = strconv.AppendFloat(dst, c.FreqHz, 'f', -1, 64)
	dst = append(dst, "_A"...)
	return strconv.AppendInt(dst, int64(c.AvgWindow), 10)
}

// ParseConfig parses a label in the Name format.
func ParseConfig(s string) (Config, error) {
	rest, ok := strings.CutPrefix(s, "F")
	if !ok {
		return Config{}, fmt.Errorf("sensor: bad config label %q", s)
	}
	fPart, aPart, ok := strings.Cut(rest, "_A")
	if !ok {
		return Config{}, fmt.Errorf("sensor: bad config label %q", s)
	}
	f, err := strconv.ParseFloat(fPart, 64)
	if err != nil {
		return Config{}, fmt.Errorf("sensor: bad frequency in %q: %v", s, err)
	}
	a, err := strconv.Atoi(aPart)
	if err != nil {
		return Config{}, fmt.Errorf("sensor: bad window in %q: %v", s, err)
	}
	cfg := Config{FreqHz: f, AvgWindow: a}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate reports whether the configuration is physically meaningful.
func (c Config) Validate() error {
	if c.FreqHz <= 0 {
		return fmt.Errorf("sensor: non-positive sampling frequency %v", c.FreqHz)
	}
	if c.AvgWindow <= 0 {
		return fmt.Errorf("sensor: non-positive averaging window %d", c.AvgWindow)
	}
	if c.FreqHz > InternalRateHz {
		return fmt.Errorf("sensor: output rate %v exceeds internal rate %v", c.FreqHz, InternalRateHz)
	}
	return nil
}

// AvgWindowSec returns the averaging window duration in seconds.
func (c Config) AvgWindowSec() float64 { return float64(c.AvgWindow) / InternalRateHz }

// BatchSize returns the number of output samples produced in durSec
// seconds.
func (c Config) BatchSize(durSec float64) int {
	n := int(durSec*c.FreqHz + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// TableI returns the paper's sixteen frequency/averaging-window
// combinations (Table I), in the paper's listing order.
func TableI() []Config {
	return []Config{
		{100, 128}, {50, 128},
		{25, 128}, {12.5, 128},
		{6.25, 128}, {25, 32},
		{12.5, 32}, {6.25, 32},
		{50, 16}, {25, 16},
		{12.5, 16}, {6.25, 16},
		{50, 8}, {25, 8},
		{12.5, 8}, {6.25, 8},
	}
}

// ParetoStates returns the four configurations the paper's design-space
// exploration identifies as the accuracy/power Pareto frontier, in
// descending power order — the SPOT controller's state sequence
// {F100_A128, F50_A16, F12.5_A16, F12.5_A8}.
//
// The frontier is *recomputed* from scratch by internal/pareto (Fig. 2);
// this canonical list exists so that the controller and experiments can be
// constructed independently of a DSE run, exactly as the paper fixes the
// four states after its exploration.
func ParetoStates() []Config {
	return []Config{{100, 128}, {50, 16}, {12.5, 16}, {12.5, 8}}
}
