package core

import (
	"fmt"

	"adasense/internal/sensor"
)

// Engine drives the HAR framework in real time against a physical sensor:
// the application configures its IMU to Engine.Config(), pushes raw
// batches as they arrive, and acts on the emitted events — a
// classification every hop, plus the configuration the sensor must be
// switched to for the next episode.
//
// The closed-loop simulator (internal/sim) bypasses Engine because it owns
// time; Engine is the deployment-facing counterpart with the same
// buffering and controller semantics. It is not safe for concurrent use.
type Engine struct {
	pipeline   *Pipeline
	controller Controller

	window     *SlidingWindow
	hopSamples int // samples per classification tick at the current config
	pending    int // samples accumulated since the last tick
	windowSec  float64
	hopSec     float64

	// chunk is Push's scratch for slicing an incoming batch at hop
	// boundaries; reusing it keeps the per-chunk header off the heap
	// (SlidingWindow.Push copies the samples out, so aliasing the
	// caller's batch is safe). Cleared before Push returns.
	chunk sensor.Batch
}

// Event is one classification tick emitted by Push.
type Event struct {
	// Classification is the pipeline's output for the window ending at
	// this tick.
	Classification Classification
	// Config is the configuration the sensor must use from now on.
	Config sensor.Config
	// ConfigChanged reports whether Config differs from the
	// configuration in effect when the tick's window was sampled.
	ConfigChanged bool
}

// NewEngine builds an engine over a trained pipeline and a controller.
// windowSec/hopSec default to the paper's 2 s window with 1 s hop when
// zero.
func NewEngine(p *Pipeline, c Controller, windowSec, hopSec float64) (*Engine, error) {
	if p == nil || c == nil {
		return nil, fmt.Errorf("core: engine needs a pipeline and a controller")
	}
	if windowSec == 0 {
		windowSec = 2
	}
	if hopSec == 0 {
		hopSec = 1
	}
	if hopSec <= 0 || windowSec < hopSec {
		return nil, fmt.Errorf("core: invalid window/hop %v/%v", windowSec, hopSec)
	}
	c.Reset()
	w, err := NewSlidingWindow(c.Config(), windowSec)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		pipeline:   p,
		controller: c,
		window:     w,
		windowSec:  windowSec,
		hopSec:     hopSec,
	}
	e.hopSamples = e.window.Config().BatchSize(hopSec)
	return e, nil
}

// Config returns the configuration the sensor must currently use.
func (e *Engine) Config() sensor.Config { return e.window.Config() }

// Push feeds a batch of raw readings sampled under the engine's current
// configuration and returns the classification events it completed (zero
// or more, one per elapsed hop) in a fresh slice. It refuses, before any
// state changes, a batch that fails sensor.Batch.Validate (a
// *sensor.BatchError) or one sampled under a different configuration —
// the caller failed to apply a requested switch.
//
// If an event switches the configuration, any samples of the same batch
// beyond that tick are discarded: they were acquired under the old
// configuration, which a physical sensor cannot retroactively change.
// Pushing in chunks of at most one hop avoids any loss.
func (e *Engine) Push(b *sensor.Batch) ([]Event, error) { return e.PushAppend(nil, b) }

// PushAppend is Push appending the completed events to dst, which it
// returns extended (dst itself on error). A caller that reuses dst
// across pushes allocates nothing per push.
func (e *Engine) PushAppend(dst []Event, b *sensor.Batch) ([]Event, error) {
	if err := b.Validate(); err != nil {
		return dst, err
	}
	return e.PushChecked(dst, b)
}

// PushChecked is PushAppend for a batch the caller has already passed
// through sensor.Batch.Validate, so the batch is checked once per push.
func (e *Engine) PushChecked(dst []Event, b *sensor.Batch) ([]Event, error) {
	if b.Config != e.window.Config() {
		return dst, fmt.Errorf("core: pushed %s batch while engine expects %s",
			b.Config.Name(), e.window.Config().Name())
	}
	offset := 0
	for offset < b.Len() {
		take := b.Len() - offset
		if room := e.hopSamples - e.pending; take > room {
			take = room
		}
		e.chunk = sensor.Batch{
			Config: b.Config,
			X:      b.X[offset : offset+take],
			Y:      b.Y[offset : offset+take],
			Z:      b.Z[offset : offset+take],
		}
		e.window.Push(&e.chunk)
		e.pending += take
		offset += take

		if e.pending < e.hopSamples {
			break // batch exhausted before the next tick
		}
		e.pending = 0
		win := e.window.Window()
		cls := e.pipeline.Classify(win)
		if bo, ok := e.controller.(BatchObserver); ok {
			bo.ObserveBatch(win)
		}
		e.controller.Observe(cls.Activity, cls.Confidence)

		next := e.controller.Config()
		changed := next != e.window.Config()
		dst = append(dst, Event{Classification: cls, Config: next, ConfigChanged: changed})
		if changed {
			// Remaining samples were acquired under the old
			// configuration; drop them and wait for data at the new one.
			e.window.Reset(next)
			e.hopSamples = next.BatchSize(e.hopSec)
			break
		}
	}
	e.chunk = sensor.Batch{} // don't pin the caller's batch between pushes
	return dst, nil
}

// Reset returns the engine (and its controller) to the initial state.
func (e *Engine) Reset() {
	e.controller.Reset()
	e.window.Reset(e.controller.Config())
	e.hopSamples = e.window.Config().BatchSize(e.hopSec)
	e.pending = 0
}
