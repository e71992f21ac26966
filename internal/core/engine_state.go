package core

import (
	"fmt"

	"adasense/internal/sensor"
)

// EngineState is a point-in-time snapshot of everything an Engine
// accumulates between Push calls: the current sensor configuration, the
// pending-sample count toward the next classification tick, the sliding
// window's buffered samples, and the controller's mutable state. It is a
// plain value — serialization lives with the caller (the adasense
// package's ADSS container), so core stays wire-format free.
type EngineState struct {
	// Config is the sensor configuration in effect at the snapshot.
	Config sensor.Config
	// Pending counts samples accumulated since the last tick; it is
	// always in [0, hopSamples) at the snapshotting engine's config.
	Pending int
	// X, Y, Z hold the sliding window's trailing samples.
	X, Y, Z []float64
	// CtlKind names the controller payload format ("" for stateless
	// controllers such as Fixed).
	CtlKind string
	// CtlState is the controller's AppendState payload.
	CtlState []byte
}

// WindowLen returns the number of buffered window samples.
func (es *EngineState) WindowLen() int { return len(es.X) }

// SnapshotInto captures the engine's state into es, reusing es's slices
// when they have capacity. The engine is left untouched and keeps
// running.
func (e *Engine) SnapshotInto(es *EngineState) {
	es.Config = e.window.Config()
	es.Pending = e.pending
	es.X, es.Y, es.Z = es.X[:0], es.Y[:0], es.Z[:0]
	if win := e.window.Window(); win != nil {
		es.X = append(es.X, win.X...)
		es.Y = append(es.Y, win.Y...)
		es.Z = append(es.Z, win.Z...)
	}
	if sc, ok := e.controller.(StatefulController); ok {
		es.CtlKind = sc.StateKind()
		es.CtlState = sc.AppendState(es.CtlState[:0])
	} else {
		es.CtlKind = ""
		es.CtlState = es.CtlState[:0]
	}
}

// Snapshot returns a freshly allocated snapshot of the engine's state.
func (e *Engine) Snapshot() *EngineState {
	es := &EngineState{}
	e.SnapshotInto(es)
	return es
}

// Restore replaces the engine's accumulated state with a snapshot taken
// from an engine over the same window/hop geometry and an identically
// configured controller. Every field is validated before it is applied:
// the controller payload kind must match, the post-restore controller
// configuration must equal the snapshot's (catching skewed state lists),
// the pending count and window length must fit the configuration's hop
// and window sizes, and a non-empty window remainder must pass
// sensor.Batch.Validate. On error the engine is left Reset — the cold
// fallback state — never half-restored.
func (e *Engine) Restore(es *EngineState) error {
	if err := e.restore(es); err != nil {
		e.Reset()
		return err
	}
	return nil
}

func (e *Engine) restore(es *EngineState) error {
	if err := es.Config.Validate(); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	sc, stateful := e.controller.(StatefulController)
	switch {
	case es.CtlKind == "" && stateful:
		return fmt.Errorf("core: restore: snapshot carries no state for stateful controller %q", sc.StateKind())
	case es.CtlKind != "" && !stateful:
		return fmt.Errorf("core: restore: snapshot controller state %q but engine controller is stateless", es.CtlKind)
	case stateful && es.CtlKind != sc.StateKind():
		return fmt.Errorf("core: restore: controller state kind %q, engine wants %q", es.CtlKind, sc.StateKind())
	}
	hop := es.Config.BatchSize(e.hopSec)
	if es.Pending < 0 || es.Pending >= hop {
		return fmt.Errorf("core: restore: pending %d outside hop of %d samples", es.Pending, hop)
	}
	if len(es.X) > 0 || len(es.Y) > 0 || len(es.Z) > 0 {
		// The remainder meets the check every pushed batch meets, so a
		// snapshot cannot smuggle in readings Push would refuse.
		rem := sensor.Batch{Config: es.Config, X: es.X, Y: es.Y, Z: es.Z}
		if err := rem.Validate(); err != nil {
			return fmt.Errorf("core: restore: window remainder: %w", err)
		}
	}
	if max := es.Config.BatchSize(e.windowSec); len(es.X) > max {
		return fmt.Errorf("core: restore: window of %d samples exceeds %d at %s", len(es.X), max, es.Config.Name())
	}

	e.controller.Reset()
	if stateful {
		if err := e.controller.(StatefulController).RestoreState(es.CtlState); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
	}
	if got := e.controller.Config(); got != es.Config {
		// The restored controller resolves its state to a different
		// configuration than the snapshotting one did — the two sides
		// hold different state lists. Refuse rather than classify
		// wrongly-rated samples.
		return fmt.Errorf("core: restore: controller resolves to %s, snapshot was at %s",
			got.Name(), es.Config.Name())
	}
	e.window.Reset(es.Config)
	if len(es.X) > 0 {
		e.window.Push(&sensor.Batch{Config: es.Config, X: es.X, Y: es.Y, Z: es.Z})
	}
	e.hopSamples = hop
	e.pending = es.Pending
	return nil
}
