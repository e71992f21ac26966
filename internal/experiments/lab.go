// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V) plus the prose claims of Sections III-B and V-D.
// Each experiment has a runner returning a structured result with a
// Render method; cmd/adasense-experiments and perfbench's paper_suite
// workload are thin wrappers around these runners.
//
// Experiment index:
//
//	Table1           — Table I: the 16 sensor configurations
//	Fig2             — design-space exploration and Pareto frontier
//	Fig5             — 120 s behavioural trace (sit → walk)
//	Fig6             — accuracy & power vs stability threshold
//	Fig7             — AdaSense vs the intensity-based approach
//	Memory           — classifier memory comparison
//	Overhead         — processing-overhead comparison
//	FeatureAblation  — accuracy vs number of Fourier coefficients
//	ConfidenceAblation, FixedPointAblation, FSM — design-choice ablations
//	HiddenWidthAblation, FeatureFamilyAblation — classifier width and
//	                   feature-family comparisons
//
// The ablations that compare feature sets or network widths
// (FeatureAblation, HiddenWidthAblation, FeatureFamilyAblation) sample
// one train and one test corpus each, with the widest feature set any
// variant needs, and derive every variant from it: a feature variant
// trains on a projection onto its columns. Variants thus differ only in
// the factor under study, and the suite samples each corpus once.
package experiments

import (
	"fmt"

	"adasense/internal/core"
	"adasense/internal/dataset"
	"adasense/internal/features"
	"adasense/internal/iba"
	"adasense/internal/nn"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

// Lab bundles the trained models every closed-loop experiment needs: the
// AdaSense shared classifier (one network for all four Pareto
// configurations, trained on the paper's 7300-window corpus) and the
// intensity baseline's per-configuration classifier bank.
type Lab struct {
	// Net is AdaSense's shared classifier.
	Net *nn.Network
	// Bank is the intensity baseline's per-configuration classifiers.
	Bank *iba.Bank
	// TrainWindows records the corpus size the lab was built with.
	TrainWindows int

	seed uint64
}

// LabConfig sizes a lab.
type LabConfig struct {
	// Net, when non-nil, is used as the shared classifier instead of
	// training one — e.g. a network loaded from a saved model container.
	// Its input size must match the default feature layout.
	Net *nn.Network

	// TrainWindows is the shared-classifier corpus size (default 7300,
	// the paper's); ignored when Net is set.
	TrainWindows int
	// BankWindowsPerConfig sizes each baseline classifier's corpus
	// (default 2400).
	BankWindowsPerConfig int
	// Hidden is the classifier hidden width (default 32).
	Hidden int
	// Epochs overrides training epochs (default 60).
	Epochs int
	// Seed makes the lab reproducible (default 1).
	Seed uint64
}

func (c LabConfig) withDefaults() LabConfig {
	if c.TrainWindows == 0 {
		c.TrainWindows = 7300
	}
	if c.BankWindowsPerConfig == 0 {
		c.BankWindowsPerConfig = 2400
	}
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// NewLab trains the shared classifier and the baseline bank.
func NewLab(cfg LabConfig) (*Lab, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)

	net := cfg.Net
	if net == nil {
		corpus, err := dataset.Generate(dataset.GenSpec{
			Windows: cfg.TrainWindows, // across the four Pareto states
		}, r.Split(1))
		if err != nil {
			return nil, fmt.Errorf("experiments: generating corpus: %w", err)
		}
		net = nn.New(corpus.FeatureSize, cfg.Hidden, synth.NumActivities, r.Split(2))
		X, Y := corpus.XY()
		if _, err := nn.Train(net, X, Y, nn.TrainConfig{Epochs: cfg.Epochs, LabelSmoothing: 0.1}, r.Split(3)); err != nil {
			return nil, fmt.Errorf("experiments: training shared classifier: %w", err)
		}
	} else if want := features.MustExtractor(nil).Size(); net.In != want {
		return nil, fmt.Errorf("experiments: supplied network input %d does not match the feature layout (%d)", net.In, want)
	}

	ic := iba.NewDefaultController()
	bank, err := iba.TrainBank([]sensor.Config{ic.High, ic.Low},
		cfg.BankWindowsPerConfig, cfg.Hidden, r.Split(4))
	if err != nil {
		return nil, fmt.Errorf("experiments: training baseline bank: %w", err)
	}
	return &Lab{Net: net, Bank: bank, TrainWindows: cfg.TrainWindows, seed: cfg.Seed}, nil
}

// NewQuickLab builds a smaller lab for tests: same structure, reduced
// corpora and epochs.
func NewQuickLab(seed uint64) (*Lab, error) {
	return NewLab(LabConfig{
		TrainWindows:         2400,
		BankWindowsPerConfig: 1200,
		Epochs:               40,
		Seed:                 seed,
	})
}

// Pipeline returns a fresh HAR pipeline over the shared classifier.
// Pipelines own scratch buffers, so each concurrent user needs its own.
func (l *Lab) Pipeline() *core.Pipeline {
	p, err := core.NewPipeline(l.Net, features.MustExtractor(nil))
	if err != nil {
		panic(err) // unreachable: lab nets are built against default features
	}
	return p
}

// rngFor derives an experiment-specific deterministic stream.
func (l *Lab) rngFor(tag uint64) *rng.Source {
	return rng.New(l.seed*1_000_003 + tag)
}
