package core

import (
	"fmt"
	"time"

	"adasense/internal/features"
	"adasense/internal/nn"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

// SlidingWindow is the framework's buffer (Fig. 1): it accumulates sensor
// batches under one configuration and exposes the trailing classification
// window (two seconds in the paper, pushed through the pipeline every
// second with one second of overlap).
//
// When the controller switches the sensor configuration the buffer must be
// reset: samples taken at different rates cannot share one batch. The
// rate-invariant features still allow classifying the first, shorter
// post-switch window, so no classification tick is skipped.
type SlidingWindow struct {
	cfg       sensor.Config
	windowSec float64
	batch     *sensor.Batch
}

// NewSlidingWindow returns a buffer for cfg holding windowSec seconds.
func NewSlidingWindow(cfg sensor.Config, windowSec float64) (*SlidingWindow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if windowSec <= 0 {
		return nil, fmt.Errorf("core: non-positive window %v", windowSec)
	}
	size := cfg.BatchSize(windowSec)
	return &SlidingWindow{
		cfg:       cfg,
		windowSec: windowSec,
		batch: &sensor.Batch{
			Config: cfg,
			X:      make([]float64, 0, size),
			Y:      make([]float64, 0, size),
			Z:      make([]float64, 0, size),
		},
	}, nil
}

// Config returns the configuration the buffer currently accepts.
func (w *SlidingWindow) Config() sensor.Config { return w.cfg }

// Push appends a batch and trims the buffer to the trailing window. The
// batch's configuration must match the buffer's.
func (w *SlidingWindow) Push(b *sensor.Batch) {
	if b.Config != w.cfg {
		panic(fmt.Sprintf("core: pushed %v batch into %v buffer", b.Config.Name(), w.cfg.Name()))
	}
	w.batch.Append(b)
	max := w.cfg.BatchSize(w.windowSec)
	if n := w.batch.Len(); n > max {
		// Trim by copying down rather than reslicing forward: a forward
		// reslice walks through the backing array and forces Append to
		// reallocate periodically; copying keeps the buffer's capacity in
		// place, so the steady state allocates nothing.
		w.batch.X = w.batch.X[:copy(w.batch.X, w.batch.X[n-max:])]
		w.batch.Y = w.batch.Y[:copy(w.batch.Y, w.batch.Y[n-max:])]
		w.batch.Z = w.batch.Z[:copy(w.batch.Z, w.batch.Z[n-max:])]
	}
}

// Window returns the buffered trailing window (nil when empty). The
// returned batch aliases the buffer; callers must not retain it across
// Push or Reset.
func (w *SlidingWindow) Window() *sensor.Batch {
	if w.batch.Len() == 0 {
		return nil
	}
	return w.batch
}

// Reset clears the buffer and switches it to accept cfg. The backing
// arrays are kept (Window's no-retention contract makes that safe), so
// configuration switches do not allocate.
func (w *SlidingWindow) Reset(cfg sensor.Config) {
	w.cfg = cfg
	w.batch.Config = cfg
	w.batch.X = w.batch.X[:0]
	w.batch.Y = w.batch.Y[:0]
	w.batch.Z = w.batch.Z[:0]
}

// Classification is one pipeline output.
type Classification struct {
	Activity   synth.Activity
	Confidence float64
}

// Pipeline is the HAR framework of Fig. 1: feature extraction plus the
// shared neural-network classifier. It owns the feature, hidden-layer and
// probability buffers a classification writes, so Classify allocates
// nothing; it is NOT safe for concurrent use, create one per goroutine.
type Pipeline struct {
	ext *features.Extractor
	net *nn.Network

	// Stages, when non-nil, receives the feature-extraction and
	// forward-pass wall times of every Classify call. The serving layer
	// sets it to feed its latency histograms; the nil default costs one
	// branch.
	Stages func(extract, classify time.Duration)

	feat   []float64
	hidden []float64
	probs  []float64
}

// NewPipeline builds a pipeline from a trained network and a feature
// extractor. The extractor's feature size must match the network input.
func NewPipeline(net *nn.Network, ext *features.Extractor) (*Pipeline, error) {
	if ext.Size() != net.In {
		return nil, fmt.Errorf("core: extractor size %d != network input %d", ext.Size(), net.In)
	}
	return &Pipeline{
		ext:    ext,
		net:    net,
		feat:   make([]float64, ext.Size()),
		hidden: make([]float64, net.Hidden),
		probs:  make([]float64, net.Out),
	}, nil
}

// Network returns the pipeline's classifier.
func (p *Pipeline) Network() *nn.Network { return p.net }

// Extractor returns the pipeline's feature extractor.
func (p *Pipeline) Extractor() *features.Extractor { return p.ext }

// Classify runs feature extraction and classification on one batch.
func (p *Pipeline) Classify(b *sensor.Batch) Classification {
	var extStart, clsStart time.Time
	timed := p.Stages != nil
	if timed {
		extStart = time.Now()
	}
	p.feat = p.ext.Extract(b, p.feat)
	if timed {
		clsStart = time.Now()
	}
	p.net.ForwardInto(p.feat, p.hidden, p.probs)
	best := 0
	for i, v := range p.probs {
		if v > p.probs[best] {
			best = i
		}
	}
	if timed {
		p.Stages(clsStart.Sub(extStart), time.Since(clsStart))
	}
	return Classification{Activity: synth.Activity(best), Confidence: p.probs[best]}
}
