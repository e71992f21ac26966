// Package dataset builds labeled feature corpora for training and
// evaluating the activity classifier. It is the software counterpart of
// the paper's data-collection campaign: "an extensive data set of 7300
// activity windows of the four optimal accelerometer configurations"
// (Section V-A), synthesized here instead of recorded.
package dataset

import (
	"fmt"

	"adasense/internal/features"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

// Example is one labeled feature vector, tagged with the sensor
// configuration it was observed under.
type Example struct {
	Features []float64
	Label    synth.Activity
	Config   sensor.Config
}

// Corpus is a set of examples with a common feature layout.
type Corpus struct {
	Examples    []Example
	FeatureSize int
}

// Len returns the number of examples.
func (c *Corpus) Len() int { return len(c.Examples) }

// XY returns the corpus as parallel input/label slices for the trainer.
// The returned slices alias the corpus's feature storage.
func (c *Corpus) XY() (X [][]float64, Y []int) {
	X = make([][]float64, len(c.Examples))
	Y = make([]int, len(c.Examples))
	for i, ex := range c.Examples {
		X[i] = ex.Features
		Y[i] = int(ex.Label)
	}
	return X, Y
}

// FilterConfig returns the sub-corpus observed under cfg. The examples are
// shared, not copied.
func (c *Corpus) FilterConfig(cfg sensor.Config) *Corpus {
	out := &Corpus{FeatureSize: c.FeatureSize}
	for _, ex := range c.Examples {
		if ex.Config == cfg {
			out.Examples = append(out.Examples, ex)
		}
	}
	return out
}

// Split partitions the corpus into train and test parts with the given
// test fraction, shuffling with r. Examples are shared with the receiver.
func (c *Corpus) Split(testFrac float64, r *rng.Source) (train, test *Corpus) {
	if testFrac < 0 || testFrac > 1 {
		panic("dataset: test fraction out of [0,1]")
	}
	idx := r.Perm(len(c.Examples))
	nTest := int(float64(len(c.Examples)) * testFrac)
	train = &Corpus{FeatureSize: c.FeatureSize}
	test = &Corpus{FeatureSize: c.FeatureSize}
	for i, j := range idx {
		if i < nTest {
			test.Examples = append(test.Examples, c.Examples[j])
		} else {
			train.Examples = append(train.Examples, c.Examples[j])
		}
	}
	return train, test
}

// GenSpec describes a corpus-generation run.
type GenSpec struct {
	// Configs lists the sensor configurations to observe under; windows
	// are distributed round-robin across them. Defaults to the four
	// Pareto states.
	Configs []sensor.Config
	// Windows is the total number of 2-second windows to generate
	// (default 7300, the paper's corpus size).
	Windows int
	// WindowSec and HopSec define the classification batching (defaults
	// 2 s and 1 s, Section III-A).
	WindowSec, HopSec float64
	// EpisodeSec is the length of each synthetic single-activity episode
	// windows are cut from (default 12 s).
	EpisodeSec float64
	// Noise overrides the sensor noise model (zero value selects
	// DefaultNoiseModel).
	Noise *sensor.NoiseModel
	// BinFreqsHz overrides the spectral feature bins (nil selects the
	// paper's 1/2/3 Hz).
	BinFreqsHz []float64
	// Extractor overrides the feature extractor entirely (for the
	// feature-family ablation: wavelet features etc.). When set,
	// BinFreqsHz is ignored.
	Extractor FeatureExtractor
}

// FeatureExtractor abstracts the per-window feature computation so
// corpora can be built for alternative feature families.
// *features.Extractor and *features.WaveletExtractor satisfy it.
type FeatureExtractor interface {
	Size() int
	Extract(b *sensor.Batch, dst []float64) []float64
}

func (g GenSpec) withDefaults() GenSpec {
	if g.Configs == nil {
		g.Configs = sensor.ParetoStates()
	}
	if g.Windows == 0 {
		g.Windows = 7300
	}
	if g.WindowSec == 0 {
		g.WindowSec = 2
	}
	if g.HopSec == 0 {
		g.HopSec = 1
	}
	if g.EpisodeSec == 0 {
		// 6 s episodes yield 4 windows each: enough hop overlap to mimic
		// streaming batches, while keeping per-class subject diversity
		// high (the paper's corpus spans many recording sessions).
		g.EpisodeSec = 6
	}
	if g.Noise == nil {
		n := sensor.DefaultNoiseModel()
		g.Noise = &n
	}
	return g
}

// Generate synthesizes a corpus per spec. Windows are balanced across
// (configuration × activity) cells; each cell draws fresh episodes so
// windows within a cell still span many synthetic subjects. Deterministic
// given r.
func Generate(spec GenSpec, r *rng.Source) (*Corpus, error) {
	spec = spec.withDefaults()
	if len(spec.Configs) == 0 {
		return nil, fmt.Errorf("dataset: no sensor configurations")
	}
	for _, cfg := range spec.Configs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	var ext FeatureExtractor
	if spec.Extractor != nil {
		ext = spec.Extractor
	} else {
		e, err := features.NewExtractor(spec.BinFreqsHz)
		if err != nil {
			return nil, err
		}
		ext = e
	}
	models := synth.DefaultModels()
	sampler := sensor.NewSampler(*spec.Noise, r.Split(1))
	motionRng := r.Split(2)

	corpus := &Corpus{FeatureSize: ext.Size()}
	windowsPerEpisode := int((spec.EpisodeSec - spec.WindowSec) / spec.HopSec)
	if windowsPerEpisode < 1 {
		return nil, fmt.Errorf("dataset: episode length %v too short for window %v", spec.EpisodeSec, spec.WindowSec)
	}

	cells := len(spec.Configs) * synth.NumActivities
	cell := 0
	for corpus.Len() < spec.Windows {
		cfg := spec.Configs[cell%len(spec.Configs)]
		act := synth.Activity((cell / len(spec.Configs)) % synth.NumActivities)
		cell = (cell + 1) % cells

		sched := synth.MustSchedule(synth.Segment{Activity: act, Duration: spec.EpisodeSec})
		motion := synth.NewMotion(models, sched, motionRng)
		for w := 0; w < windowsPerEpisode && corpus.Len() < spec.Windows; w++ {
			t0 := float64(w) * spec.HopSec
			batch := sampler.Sample(motion, cfg, t0, t0+spec.WindowSec)
			feat := make([]float64, ext.Size())
			ext.Extract(batch, feat)
			corpus.Examples = append(corpus.Examples, Example{
				Features: feat,
				Label:    act,
				Config:   cfg,
			})
		}
	}
	return corpus, nil
}
