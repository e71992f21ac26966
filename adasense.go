// Package adasense is the public API of the AdaSense reproduction: an
// adaptive low-power sensing and human-activity-recognition framework for
// wearable devices (Neseem, Nelson, Reda — DAC 2020).
//
// The package ties together the repository's subsystems:
//
//   - a BMI160-class accelerometer model with Table I's sixteen
//     (sampling-frequency, averaging-window) configurations and a
//     duty-cycle current model;
//   - rate-invariant feature extraction (per-axis mean, σ, and Fourier
//     magnitudes at 1/2/3 Hz) feeding one shared two-layer classifier
//     that serves every configuration;
//   - the SPOT adaptive controller (plain and confidence-gated) that
//     walks the sensor down the Pareto frontier while the user's
//     activity is stable;
//   - a synthetic human-motion generator and a closed-loop simulator for
//     end-to-end power/accuracy evaluation.
//
// # Serving model
//
// The package is organized around the Service/Session serving layer. A
// Service wraps one immutable trained System — the paper's single shared
// classifier — at the paper's fixed operating point (2 s window, 1 s
// hop, BMI160-class power and noise models, Cortex-M4-class MCU model),
// with the controller policy as its one functional option. The Service
// is safe for concurrent use from many goroutines; each connected device
// gets its own goroutine-confined Session.
//
// Above the Service sits the fleet Gateway: a sharded session registry
// with id lookup, idle-TTL eviction and a max-sessions cap, an
// atomically swappable current Service (SwapModel repoints new sessions
// and Classify at a retrained System while live sessions keep their
// pinned model until Close or Migrate), bearer-token auth (WithAuth,
// constant-time Authorize), per-device and global token-bucket rate
// limiting (WithRateLimit), graceful drain for shutdown (Drain,
// WithDrainTimeout) and serving telemetry (Gateway.Stats, plus
// Prometheus text exposition via Gateway.WriteMetrics).
//
// Past one gateway, a Cluster federates replicas into a fleet: a
// consistent-hash ring deterministically assigns every device id to one
// replica (Cluster.Route, allocation-free), requests that arrive at the
// wrong replica are forwarded to their owner over the HTTP/JSON wire
// with the bearer token relayed, and Cluster.SwapModel replicates one
// model upload to every replica with counted retries and per-replica
// SwapResult reporting.
// cmd/adasense-gateway serves the whole surface over HTTP/JSON; see
// docs/architecture.md, docs/operations.md and docs/federation.md for
// the layer model, the operational reference and the federation guide.
//
// # Quick start
//
//	sys, _, _ := adasense.TrainSystem(adasense.TrainingConfig{Windows: 2400})
//	svc, _ := adasense.NewService(sys,
//		adasense.WithControllerFactory(func() adasense.Controller {
//			return adasense.NewSPOTWithConfidence(10)
//		}))
//
//	// Closed-loop evaluation, fanned across workers:
//	specs := []adasense.RunSpec{
//		{Motion: adasense.NewMotion(adasense.RandomSchedule(1, 600, 30, 60), 1), Seed: 11},
//		{Motion: adasense.NewMotion(adasense.RandomSchedule(2, 600, 30, 60), 2), Seed: 12},
//	}
//	results, _ := svc.RunMany(ctx, specs, 0)
//	fmt.Printf("accuracy %.1f%%, %.0f µA\n",
//		100*results[0].Accuracy(), results[0].AvgSensorCurrentUA)
//
//	// Real-time serving, one session per device:
//	sess, _ := svc.OpenSession("device-42")
//	defer sess.Close()
//	events, _ := sess.Push(batch) // raw readings at sess.Config()
//	events, _ = sess.PushAppend(events[:0], batch) // reuses the slice: no allocation
//
// See examples/ for complete programs and internal/experiments for the
// paper's tables and figures.
package adasense

import (
	"adasense/internal/battery"
	"adasense/internal/core"
	"adasense/internal/dataset"
	"adasense/internal/features"
	"adasense/internal/nn"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/sim"
	"adasense/internal/synth"
)

// Activity identifies one of the six recognized activities.
type Activity = synth.Activity

// The six activity classes.
const (
	Sit        = synth.Sit
	Stand      = synth.Stand
	LieDown    = synth.LieDown
	Walk       = synth.Walk
	Upstairs   = synth.Upstairs
	Downstairs = synth.Downstairs

	// NumActivities is the number of activity classes.
	NumActivities = synth.NumActivities
)

// ParseActivity converts an activity name back to an Activity.
func ParseActivity(s string) (Activity, error) { return synth.ParseActivity(s) }

// Config is one accelerometer operating point (sampling frequency and
// averaging window).
type Config = sensor.Config

// PowerModel is the sensor's duty-cycle current model.
type PowerModel = sensor.PowerModel

// ParseConfig parses a configuration label in the Config.Name format,
// e.g. "F100_A128".
func ParseConfig(s string) (Config, error) { return sensor.ParseConfig(s) }

// TableI returns the paper's sixteen sensor configurations.
func TableI() []Config { return sensor.TableI() }

// ParetoStates returns the four Pareto-optimal configurations SPOT walks,
// in descending power order.
func ParetoStates() []Config { return sensor.ParetoStates() }

// DefaultPowerModel returns BMI160-class current constants.
func DefaultPowerModel() PowerModel { return sensor.DefaultPowerModel() }

// Controller adapts the sensor configuration to the classification
// stream; SPOT, the pinned baseline and user-defined policies implement
// it.
type Controller = core.Controller

// SPOT is the paper's State Prediction Optimization Technique controller.
type SPOT = core.SPOT

// Classification is one pipeline output: the predicted activity and its
// softmax confidence.
type Classification = core.Classification

// Pipeline is the feature-extraction + classification pipeline.
type Pipeline = core.Pipeline

// Engine is the real-time deployment loop: the application pushes raw
// sensor batches and receives classification events plus configuration
// switch requests. Service.OpenSession wraps one per device.
type Engine = core.Engine

// Event is one Engine classification tick.
type Event = core.Event

// NewSPOT returns the plain SPOT controller over the paper's four states
// with the given stability threshold in one-second ticks.
func NewSPOT(stabilityTicks int) *SPOT { return core.NewPaperSPOT(stabilityTicks) }

// NewSPOTWithConfidence returns SPOT with the paper's 0.85 confidence
// gate.
func NewSPOTWithConfidence(stabilityTicks int) *SPOT {
	return core.NewPaperSPOTWithConfidence(stabilityTicks)
}

// NewCustomSPOT builds a SPOT controller over arbitrary states and
// thresholds (confidence 0 disables the gate).
func NewCustomSPOT(states []Config, stabilityTicks int, confidence float64) (*SPOT, error) {
	return core.NewSPOTWithConfidence(states, stabilityTicks, confidence)
}

// NewBaselineController returns the paper's fixed F100_A128 baseline.
func NewBaselineController() Controller { return core.NewBaseline() }

// NewFixedController returns a controller that pins the sensor at one
// arbitrary configuration — the closed-loop stand-in for an open-loop
// design point.
func NewFixedController(cfg Config) Controller { return &core.Fixed{Cfg: cfg} }

// Schedule is a ground-truth activity timeline; Motion is its concrete
// signal realization.
type (
	Schedule = synth.Schedule
	Segment  = synth.Segment
	Motion   = synth.Motion
)

// ChangeSetting names the Fig. 7 activity-volatility settings.
type ChangeSetting = synth.ChangeSetting

// The three activity-change settings.
const (
	HighChange   = synth.HighChange
	MediumChange = synth.MediumChange
	LowChange    = synth.LowChange
)

// NewSchedule builds a schedule from explicit segments.
func NewSchedule(segments []Segment) (*Schedule, error) { return synth.NewSchedule(segments) }

// RandomSchedule generates a schedule with uniform dwell times in
// [dwellLo, dwellHi] seconds.
func RandomSchedule(seed uint64, totalSec, dwellLo, dwellHi float64) *Schedule {
	return synth.RandomSchedule(rng.New(seed), totalSec, dwellLo, dwellHi)
}

// SettingSchedule generates a schedule for one of the paper's
// High/Medium/Low settings.
func SettingSchedule(seed uint64, setting ChangeSetting, totalSec float64) *Schedule {
	return synth.SettingSchedule(rng.New(seed), setting, totalSec)
}

// NewMotion realizes a schedule as a concrete synthetic signal.
func NewMotion(schedule *Schedule, seed uint64) *Motion {
	return synth.NewMotion(synth.DefaultModels(), schedule, rng.New(seed))
}

// Battery is a small battery pack for lifetime projections.
type Battery = battery.Pack

// CoinCellCR2032 and SmallLiPo40 are common wearable battery presets.
func CoinCellCR2032() Battery { return battery.CoinCellCR2032() }

// SmallLiPo40 returns a 40 mAh wearable LiPo pack.
func SmallLiPo40() Battery { return battery.SmallLiPo40() }

// SimulationResult describes one closed-loop run.
type SimulationResult = sim.Result

// System bundles a trained shared classifier with its feature layout.
type System struct {
	// Network is the shared classifier (one network for every sensor
	// configuration).
	Network *nn.Network

	binFreqs []float64
}

// TrainingConfig parameterizes TrainSystem.
type TrainingConfig struct {
	// Windows is the training corpus size across the four Pareto
	// configurations (default 7300, the paper's corpus).
	Windows int
	// Hidden is the classifier's hidden width (default 32).
	Hidden int
	// Epochs is the number of training passes (default 60).
	Epochs int
	// HoldoutFrac reserves a test fraction and reports accuracy
	// (default 0.2).
	HoldoutFrac float64
	// Seed drives every stochastic choice (default 1).
	Seed uint64
}

// TrainSystem generates a synthetic corpus over the four Pareto
// configurations and trains the shared classifier, returning the system
// and its held-out accuracy.
func TrainSystem(cfg TrainingConfig) (*System, float64, error) {
	if cfg.Windows == 0 {
		cfg.Windows = 7300
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 32
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 60
	}
	if cfg.HoldoutFrac == 0 {
		cfg.HoldoutFrac = 0.2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	r := rng.New(cfg.Seed)
	corpus, err := dataset.Generate(dataset.GenSpec{Windows: cfg.Windows}, r.Split(1))
	if err != nil {
		return nil, 0, err
	}
	train, test := corpus.Split(cfg.HoldoutFrac, r.Split(2))
	net := nn.New(corpus.FeatureSize, cfg.Hidden, NumActivities, r.Split(3))
	X, Y := train.XY()
	if _, err := nn.Train(net, X, Y, nn.TrainConfig{Epochs: cfg.Epochs, LabelSmoothing: 0.1}, r.Split(4)); err != nil {
		return nil, 0, err
	}
	tx, ty := test.XY()
	return &System{Network: net, binFreqs: features.DefaultBinFreqsHz()}, nn.Accuracy(net, tx, ty), nil
}

// NewPipeline returns a fresh classification pipeline over the system's
// classifier. Pipelines own scratch buffers: create one per goroutine.
func (s *System) NewPipeline() (*Pipeline, error) {
	ext, err := features.NewExtractor(s.binFreqs)
	if err != nil {
		return nil, err
	}
	return core.NewPipeline(s.Network, ext)
}

// Save and LoadSystem (the versioned model container) live in model.go.
