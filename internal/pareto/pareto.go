// Package pareto implements the paper's sensor-configuration design-space
// exploration (Section IV-B, Fig. 2): it measures recognition accuracy and
// current consumption for each of Table I's sixteen configurations and
// computes the Pareto frontier of the (accuracy ↑, current ↓) trade-off.
package pareto

import (
	"fmt"
	"sort"

	"adasense/internal/dataset"
	"adasense/internal/nn"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

// Point is one explored configuration.
type Point struct {
	Config    sensor.Config
	Mode      sensor.Mode
	CurrentUA float64
	Accuracy  float64
	OnFront   bool
}

// Result is a completed exploration.
type Result struct {
	// Points holds every explored configuration in the input order.
	Points []Point
	// Front holds the non-dominated points sorted by descending current
	// (the order SPOT walks them).
	Front []Point
}

// Strategy selects how classifiers are trained during exploration.
type Strategy int

const (
	// PerConfig trains a dedicated classifier for each explored
	// configuration, so each point's accuracy reflects the configuration
	// itself rather than cross-configuration interference. This is the
	// natural design-space-exploration methodology (it is also what the
	// NK et al. baseline deploys).
	PerConfig Strategy = iota
	// Shared trains one classifier on data pooled across every explored
	// configuration — AdaSense's deployment strategy.
	Shared
)

// Spec parameterizes an exploration.
type Spec struct {
	// Configs to explore; defaults to Table I.
	Configs []sensor.Config
	// Strategy selects per-configuration (default) or shared training.
	Strategy Strategy
	// TrainWindows and TestWindows size the corpora. Under PerConfig they
	// are per configuration (defaults 2400 and 1800); under Shared they
	// are totals pooled across configurations (defaults 7300 and 2400).
	TrainWindows, TestWindows int
	// Replicas averages each configuration's accuracy over this many
	// independent train/test replications (default 1). Per-configuration
	// accuracies carry training-realization noise of ±1-2 % at moderate
	// corpus sizes; replication tightens the Fig. 2 landscape.
	Replicas int
	// Hidden is the classifier's hidden width (default 32).
	Hidden int
	// Train overrides training hyperparameters.
	Train nn.TrainConfig
	// Power is the current model (zero value selects the default).
	Power *sensor.PowerModel
	// Noise overrides the sensor noise model.
	Noise *sensor.NoiseModel
}

func (s Spec) withDefaults() Spec {
	if s.Configs == nil {
		s.Configs = sensor.TableI()
	}
	if s.TrainWindows == 0 {
		if s.Strategy == PerConfig {
			s.TrainWindows = 2400
		} else {
			s.TrainWindows = 7300
		}
	}
	if s.TestWindows == 0 {
		if s.Strategy == PerConfig {
			s.TestWindows = 1800
		} else {
			s.TestWindows = 2400
		}
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	if s.Hidden == 0 {
		s.Hidden = 32
	}
	if s.Power == nil {
		p := sensor.DefaultPowerModel()
		s.Power = &p
	}
	return s
}

// Explore measures recognition accuracy and current for every explored
// configuration, attaches the power model's current, and marks the Pareto
// frontier. Deterministic given r.
func Explore(spec Spec, r *rng.Source) (Result, error) {
	spec = spec.withDefaults()
	if len(spec.Configs) == 0 {
		return Result{}, fmt.Errorf("pareto: no configurations")
	}

	accuracies := make([]float64, len(spec.Configs))
	switch spec.Strategy {
	case Shared:
		if err := exploreShared(spec, r, accuracies); err != nil {
			return Result{}, err
		}
	case PerConfig:
		if err := explorePerConfig(spec, r, accuracies); err != nil {
			return Result{}, err
		}
	default:
		return Result{}, fmt.Errorf("pareto: unknown strategy %d", spec.Strategy)
	}

	res := Result{Points: make([]Point, len(spec.Configs))}
	for i, cfg := range spec.Configs {
		res.Points[i] = Point{
			Config:    cfg,
			Mode:      spec.Power.ModeFor(cfg),
			CurrentUA: spec.Power.CurrentUA(cfg),
			Accuracy:  accuracies[i],
		}
	}
	for _, i := range FrontIndices(res.Points) {
		res.Points[i].OnFront = true
	}
	for _, p := range res.Points {
		if p.OnFront {
			res.Front = append(res.Front, p)
		}
	}
	sort.Slice(res.Front, func(i, j int) bool {
		if res.Front[i].CurrentUA != res.Front[j].CurrentUA {
			return res.Front[i].CurrentUA > res.Front[j].CurrentUA
		}
		return res.Front[i].Accuracy > res.Front[j].Accuracy
	})
	return res, nil
}

// exploreShared trains one pooled classifier and scores it per config.
func exploreShared(spec Spec, r *rng.Source, accuracies []float64) error {
	train, err := dataset.Generate(dataset.GenSpec{
		Configs: spec.Configs,
		Windows: spec.TrainWindows,
		Noise:   spec.Noise,
	}, r.Split(1))
	if err != nil {
		return err
	}
	test, err := dataset.Generate(dataset.GenSpec{
		Configs: spec.Configs,
		Windows: spec.TestWindows,
		Noise:   spec.Noise,
	}, r.Split(2))
	if err != nil {
		return err
	}
	net := nn.New(train.FeatureSize, spec.Hidden, synth.NumActivities, r.Split(3))
	X, Y := train.XY()
	if _, err := nn.Train(net, X, Y, spec.Train, r.Split(4)); err != nil {
		return err
	}
	for i, cfg := range spec.Configs {
		sx, sy := test.FilterConfig(cfg).XY()
		accuracies[i] = nn.Accuracy(net, sx, sy)
	}
	return nil
}

// explorePerConfig trains and scores dedicated classifiers per config,
// averaging over spec.Replicas independent replications.
func explorePerConfig(spec Spec, r *rng.Source, accuracies []float64) error {
	for i, cfg := range spec.Configs {
		sum := 0.0
		for rep := 0; rep < spec.Replicas; rep++ {
			sub := r.Split(uint64(i)*100 + uint64(rep) + 10)
			train, err := dataset.Generate(dataset.GenSpec{
				Configs: []sensor.Config{cfg},
				Windows: spec.TrainWindows,
				Noise:   spec.Noise,
			}, sub.Split(1))
			if err != nil {
				return err
			}
			test, err := dataset.Generate(dataset.GenSpec{
				Configs: []sensor.Config{cfg},
				Windows: spec.TestWindows,
				Noise:   spec.Noise,
			}, sub.Split(2))
			if err != nil {
				return err
			}
			net := nn.New(train.FeatureSize, spec.Hidden, synth.NumActivities, sub.Split(3))
			X, Y := train.XY()
			if _, err := nn.Train(net, X, Y, spec.Train, sub.Split(4)); err != nil {
				return err
			}
			sx, sy := test.XY()
			sum += nn.Accuracy(net, sx, sy)
		}
		accuracies[i] = sum / float64(spec.Replicas)
	}
	return nil
}

// EpsilonNonDominated reports whether points[i] is ε-non-dominated: no
// other point has current ≤ its current while exceeding its accuracy by
// more than eps. With eps = 0 this reduces to ordinary non-domination.
//
// The reproduction's per-configuration accuracies carry sampling noise of
// a few tenths of a percent (finite synthetic test corpora, one training
// run), so experiment assertions about the paper's four chosen states use
// a small ε rather than strict domination.
func EpsilonNonDominated(points []Point, i int, eps float64) bool {
	p := points[i]
	for j, q := range points {
		if j == i {
			continue
		}
		if q.CurrentUA <= p.CurrentUA && q.Accuracy > p.Accuracy+eps {
			return false
		}
	}
	return true
}

// FrontIndices returns the indices of the non-dominated points: a point is
// dominated when another point has accuracy ≥ and current ≤, with at least
// one strict. Duplicate (accuracy, current) pairs keep their first
// occurrence only.
func FrontIndices(points []Point) []int {
	var out []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			better := q.Accuracy >= p.Accuracy && q.CurrentUA <= p.CurrentUA
			strict := q.Accuracy > p.Accuracy || q.CurrentUA < p.CurrentUA
			if better && strict {
				dominated = true
				break
			}
			// Tie-break exact duplicates by index.
			if better && !strict && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}
