package core

import (
	"testing"

	"adasense/internal/dataset"
	"adasense/internal/features"
	"adasense/internal/nn"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

func TestSlidingWindowTrimsToWindow(t *testing.T) {
	cfg := sensor.Config{FreqHz: 50, AvgWindow: 16}
	w, err := NewSlidingWindow(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Window() != nil {
		t.Fatal("empty buffer should yield nil window")
	}
	mk := func(n int) *sensor.Batch {
		return &sensor.Batch{Config: cfg, X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
	}
	w.Push(mk(50)) // 1 s
	if got := w.Window().Len(); got != 50 {
		t.Fatalf("after 1 s window len = %d", got)
	}
	w.Push(mk(50))
	w.Push(mk(50))
	if got := w.Window().Len(); got != 100 {
		t.Fatalf("window len = %d, want trim to 100 (2 s @ 50 Hz)", got)
	}
}

func TestSlidingWindowKeepsLatestSamples(t *testing.T) {
	cfg := sensor.Config{FreqHz: 2, AvgWindow: 8}
	w, err := NewSlidingWindow(cfg, 2) // 4 samples
	if err != nil {
		t.Fatal(err)
	}
	b := &sensor.Batch{Config: cfg,
		X: []float64{1, 2, 3, 4, 5, 6},
		Y: []float64{1, 2, 3, 4, 5, 6},
		Z: []float64{1, 2, 3, 4, 5, 6}}
	w.Push(b)
	win := w.Window()
	if win.Len() != 4 || win.X[0] != 3 || win.X[3] != 6 {
		t.Fatalf("window = %v, want trailing samples {3..6}", win.X)
	}
}

func TestSlidingWindowConfigMismatchPanics(t *testing.T) {
	w, _ := NewSlidingWindow(sensor.Config{FreqHz: 50, AvgWindow: 16}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched push did not panic")
		}
	}()
	w.Push(&sensor.Batch{Config: sensor.Config{FreqHz: 25, AvgWindow: 16}})
}

func TestSlidingWindowReset(t *testing.T) {
	cfgA := sensor.Config{FreqHz: 50, AvgWindow: 16}
	cfgB := sensor.Config{FreqHz: 12.5, AvgWindow: 8}
	w, _ := NewSlidingWindow(cfgA, 2)
	w.Push(&sensor.Batch{Config: cfgA, X: []float64{1}, Y: []float64{1}, Z: []float64{1}})
	w.Reset(cfgB)
	if w.Config() != cfgB {
		t.Fatal("Reset did not switch config")
	}
	if w.Window() != nil {
		t.Fatal("Reset did not clear samples")
	}
}

func TestNewSlidingWindowValidation(t *testing.T) {
	if _, err := NewSlidingWindow(sensor.Config{FreqHz: 0, AvgWindow: 8}, 2); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewSlidingWindow(sensor.Config{FreqHz: 50, AvgWindow: 16}, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

// trainedPipeline builds a pipeline from a quickly trained classifier.
func trainedPipeline(t *testing.T) *Pipeline {
	t.Helper()
	r := rng.New(4242)
	corpus, err := dataset.Generate(dataset.GenSpec{Windows: 1800}, r.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	net := nn.New(corpus.FeatureSize, 24, synth.NumActivities, r.Split(2))
	X, Y := corpus.XY()
	if _, err := nn.Train(net, X, Y, nn.TrainConfig{Epochs: 30}, r.Split(3)); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(net, features.MustExtractor(nil))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineSizeMismatch(t *testing.T) {
	net := nn.New(10, 4, synth.NumActivities, rng.New(1))
	if _, err := NewPipeline(net, features.MustExtractor(nil)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestPipelineClassifiesObviousActivities(t *testing.T) {
	p := trainedPipeline(t)
	r := rng.New(9)
	models := synth.DefaultModels()
	sampler := sensor.NewSampler(sensor.DefaultNoiseModel(), r.Split(1))
	correct, total := 0, 0
	for _, act := range []synth.Activity{synth.Sit, synth.LieDown, synth.Walk} {
		for rep := 0; rep < 10; rep++ {
			sched := synth.MustSchedule(synth.Segment{Activity: act, Duration: 8})
			m := synth.NewMotion(models, sched, r.Split(uint64(act)*100+uint64(rep)))
			b := sampler.Sample(m, sensor.ParetoStates()[0], 3, 5)
			got := p.Classify(b)
			if got.Confidence < 0 || got.Confidence > 1 {
				t.Fatalf("confidence %v out of range", got.Confidence)
			}
			total++
			if got.Activity == act {
				correct++
			}
		}
	}
	if frac := float64(correct) / float64(total); frac < 0.85 {
		t.Fatalf("pipeline accuracy on clear activities = %v", frac)
	}
}

// TestPipelineClassifyMatchesClassifyFeatures checks that Classify is
// exactly feature extraction followed by the network's prediction on
// those features.
func TestPipelineClassifyMatchesClassifyFeatures(t *testing.T) {
	p := trainedPipeline(t)
	r := rng.New(11)
	sched := synth.MustSchedule(synth.Segment{Activity: synth.Walk, Duration: 8})
	m := synth.NewMotion(synth.DefaultModels(), sched, r.Split(1))
	sampler := sensor.NewSampler(sensor.DefaultNoiseModel(), r.Split(2))
	b := sampler.Sample(m, sensor.ParetoStates()[1], 3, 5)

	c1 := p.Classify(b)
	feat := p.Extractor().Extract(b, nil)
	act, conf := p.Network().Predict(feat)
	if synth.Activity(act) != c1.Activity || conf != c1.Confidence {
		t.Fatalf("Classify (%v,%v) != Predict on its features (%v,%v)", c1.Activity, c1.Confidence, synth.Activity(act), conf)
	}
}

func TestPipelineAccessors(t *testing.T) {
	p := trainedPipeline(t)
	if p.Network() == nil || p.Extractor() == nil {
		t.Fatal("accessors returned nil")
	}
}

// sampledWindow returns a 2 s walking window at cfg.
func sampledWindow(cfg sensor.Config) *sensor.Batch {
	sched := synth.MustSchedule(synth.Segment{Activity: synth.Walk, Duration: 20})
	m := synth.NewMotion(synth.DefaultModels(), sched, rng.New(1))
	return sensor.NewSampler(sensor.DefaultNoiseModel(), rng.New(2)).Sample(m, cfg, 5, 7)
}

// labShapedPipeline returns a pipeline over an untrained network of the
// lab classifier's shape: 15 features, 32 hidden units, 6 classes.
func labShapedPipeline(t testing.TB) *Pipeline {
	t.Helper()
	p, err := NewPipeline(nn.New(15, 32, synth.NumActivities, rng.New(3)), features.MustExtractor(nil))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPipelineAllocs pins one classification of a 200-sample window at
// zero allocations.
func TestPipelineAllocs(t *testing.T) {
	p := labShapedPipeline(t)
	b := sampledWindow(sensor.ParetoStates()[0])
	if b.Len() != 200 {
		t.Fatalf("window of %d samples, want 200", b.Len())
	}
	if got := testing.AllocsPerRun(100, func() { p.Classify(b) }); got != 0 {
		t.Fatalf("%v allocs per classification, want 0", got)
	}
}

// BenchmarkPipelineClassify times one classification, feature extraction
// and forward pass, of a 2 s window at each Pareto state.
func BenchmarkPipelineClassify(b *testing.B) {
	p := labShapedPipeline(b)
	for _, cfg := range sensor.ParetoStates() {
		w := sampledWindow(cfg)
		b.Run(cfg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Classify(w)
			}
		})
	}
}
