package core

import (
	"encoding/binary"
	"fmt"

	"adasense/internal/sensor"
	"adasense/internal/synth"
)

// SPOT implements the State Prediction Optimization Technique: a finite
// state machine over a power-descending list of sensor configurations
// (Fig. 4 of the paper).
//
// Semantics, matching Section IV-D:
//
//   - The FSM starts at state 0, the highest-accuracy configuration.
//   - Every observation compares the current classification with the
//     previous one. A match increments a counter (C1); when the counter
//     reaches the stability threshold the FSM moves one state down and the
//     counter restarts (C2). In the last state a match just stays (C4).
//   - A mismatch snaps the FSM back to state 0 and clears the counter
//     (C3).
//
// With a confidence threshold > 0 the FSM becomes SPOT-with-confidence
// (Section IV-E): in any low-power state, a mismatch whose classification
// confidence is below the threshold is attributed to classifier noise and
// ignored entirely — state, counter and remembered activity are left
// untouched. In state 0 the gate is inactive (there is no higher state to
// move to and no saving to protect), so changes always re-anchor the
// remembered activity.
//
// The stability threshold is expressed in observation ticks; with the
// paper's 1-second classification cadence, ticks equal seconds.
//
// The paper leaves one detail ambiguous: whether the counter restarts
// after each downward step (so every hop needs a full threshold of
// stability) or keeps counting (so the FSM waits one threshold, then steps
// down once per stable tick until the floor). Its Fig. 6b — power still
// below baseline at thresholds of 20–40 s and converging to the baseline
// exactly at the 60 s dwell bound — is only consistent with the latter, so
// CountOnce is the default; CountPerState is kept for the ablation bench.
type SPOT struct {
	states         []sensor.Config
	stabilityTicks int
	confThreshold  float64
	mode           DescendMode

	idx     int
	counter int
	last    synth.Activity
	hasLast bool

	lastCondition Condition
}

// DescendMode selects the stability counter's behaviour across downward
// steps (see the SPOT type comment).
type DescendMode int

const (
	// CountOnce keeps the counter across C2 transitions: after the first
	// threshold of stability the FSM steps down once per stable tick,
	// reaching the floor ≈ threshold + numStates ticks after the last
	// activity change. Default, calibrated against the paper's Fig. 5/6.
	CountOnce DescendMode = iota
	// CountPerState restarts the counter at every C2 transition: each hop
	// needs a full threshold of stability, so the floor is reached after
	// ≈ (numStates-1) × threshold ticks.
	CountPerState
)

// String returns the mode name.
func (m DescendMode) String() string {
	switch m {
	case CountOnce:
		return "count-once"
	case CountPerState:
		return "count-per-state"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// NewSPOTWithConfidence builds a SPOT controller over the given
// power-descending states that ignores activity changes reported with
// confidence below confThreshold (0 disables the gate, giving plain
// SPOT; the paper evaluates 0.85). stabilityTicks must be >= 0; zero
// makes every matching observation a step down (the paper's "stability
// threshold = 0" sweep point).
func NewSPOTWithConfidence(states []sensor.Config, stabilityTicks int, confThreshold float64) (*SPOT, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("core: SPOT needs at least one state")
	}
	for i, s := range states {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: SPOT state %d: %w", i, err)
		}
	}
	if stabilityTicks < 0 {
		return nil, fmt.Errorf("core: negative stability threshold %d", stabilityTicks)
	}
	if confThreshold < 0 || confThreshold > 1 {
		return nil, fmt.Errorf("core: confidence threshold %v outside [0,1]", confThreshold)
	}
	return &SPOT{
		states:         append([]sensor.Config(nil), states...),
		stabilityTicks: stabilityTicks,
		confThreshold:  confThreshold,
	}, nil
}

// MustSPOT is NewSPOTWithConfidence that panics on error, for tests and
// examples.
func MustSPOT(states []sensor.Config, stabilityTicks int, confThreshold float64) *SPOT {
	s, err := NewSPOTWithConfidence(states, stabilityTicks, confThreshold)
	if err != nil {
		panic(err)
	}
	return s
}

// NewPaperSPOT returns SPOT over the paper's four Pareto states.
func NewPaperSPOT(stabilityTicks int) *SPOT {
	return MustSPOT(sensor.ParetoStates(), stabilityTicks, 0)
}

// NewPaperSPOTWithConfidence returns SPOT-with-confidence (threshold 0.85,
// the paper's value) over the paper's four Pareto states.
func NewPaperSPOTWithConfidence(stabilityTicks int) *SPOT {
	return MustSPOT(sensor.ParetoStates(), stabilityTicks, 0.85)
}

// Config returns the configuration of the current FSM state.
func (s *SPOT) Config() sensor.Config { return s.states[s.idx] }

// StateIndex returns the current state index (0 = highest power).
func (s *SPOT) StateIndex() int { return s.idx }

// NumStates returns the number of FSM states.
func (s *SPOT) NumStates() int { return len(s.states) }

// Counter returns the current stability counter value.
func (s *SPOT) Counter() int { return s.counter }

// LastCondition returns the FSM condition that fired on the most recent
// Observe (Warmup before any observation).
func (s *SPOT) LastCondition() Condition { return s.lastCondition }

// Mode returns the descend mode.
func (s *SPOT) Mode() DescendMode { return s.mode }

// SetMode selects the descend mode. It must be called before the first
// Observe; changing the mode mid-run panics.
func (s *SPOT) SetMode(m DescendMode) {
	if s.hasLast {
		panic("core: SetMode after observations started")
	}
	if m != CountOnce && m != CountPerState {
		panic(fmt.Sprintf("core: unknown descend mode %d", int(m)))
	}
	s.mode = m
}

// Observe feeds one classification to the FSM.
func (s *SPOT) Observe(activity synth.Activity, confidence float64) {
	if !s.hasLast {
		s.last = activity
		s.hasLast = true
		s.lastCondition = Warmup
		return
	}
	if activity == s.last {
		if s.idx == len(s.states)-1 {
			s.lastCondition = C4
			return
		}
		s.counter++
		if s.counter >= s.stabilityTicks {
			s.idx++
			if s.mode == CountPerState {
				s.counter = 0
			}
			s.lastCondition = C2
			return
		}
		s.lastCondition = C1
		return
	}
	// Activity changed. The confidence gate guards only "the decision to
	// move from a lower power state to a higher power state" (Section
	// IV-E): in state 0 there is no higher state and no accumulated
	// saving to protect, so the change is always accepted — otherwise a
	// single wrong warm-up classification could freeze the FSM forever.
	if s.confThreshold > 0 && confidence < s.confThreshold && s.idx > 0 {
		s.lastCondition = Suppressed
		return
	}
	s.idx = 0
	s.counter = 0
	s.last = activity
	s.lastCondition = C3
}

// Reset returns the FSM to its initial state (state 0, no history).
func (s *SPOT) Reset() {
	s.idx = 0
	s.counter = 0
	s.last = 0
	s.hasLast = false
	s.lastCondition = Warmup
}

// spotStateKind versions the SPOT snapshot payload; bump it when the
// layout below changes so a restore across skewed builds fails loudly
// instead of misinterpreting bytes.
const spotStateKind = "spot/1"

// spotStateLen is the fixed payload size: idx u32 | counter u32 |
// last u32 | hasLast u8 | lastCondition u32, little-endian.
const spotStateLen = 17

// StateKind identifies the SPOT snapshot payload format.
func (s *SPOT) StateKind() string { return spotStateKind }

// AppendState appends the FSM's mutable state (state index, stability
// counter, remembered activity, last condition) to dst. The state list,
// thresholds and descend mode are configuration, not state, and are not
// serialized.
func (s *SPOT) AppendState(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.idx))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.counter))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.last))
	if s.hasLast {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.LittleEndian.AppendUint32(dst, uint32(s.lastCondition))
}

// RestoreState replaces the FSM's mutable state with a payload produced
// by AppendState on a controller with the same configuration. Every
// field is bounds-checked against this controller's state list and the
// activity/condition enums; on error the FSM is left Reset.
func (s *SPOT) RestoreState(data []byte) error {
	s.Reset()
	if len(data) != spotStateLen {
		return fmt.Errorf("core: SPOT state payload is %d bytes, want %d", len(data), spotStateLen)
	}
	idx := binary.LittleEndian.Uint32(data[0:4])
	counter := binary.LittleEndian.Uint32(data[4:8])
	last := binary.LittleEndian.Uint32(data[8:12])
	hasLast := data[12]
	cond := binary.LittleEndian.Uint32(data[13:17])
	switch {
	case int(idx) >= len(s.states):
		return fmt.Errorf("core: SPOT state index %d outside %d states", idx, len(s.states))
	case counter > uint32(1)<<30:
		return fmt.Errorf("core: implausible SPOT counter %d", counter)
	case !synth.Activity(last).Valid():
		return fmt.Errorf("core: SPOT remembered activity %d out of range", last)
	case hasLast > 1:
		return fmt.Errorf("core: SPOT hasLast flag %d is not a boolean", hasLast)
	case cond > uint32(Suppressed):
		return fmt.Errorf("core: SPOT condition %d out of range", cond)
	case hasLast == 0 && (idx != 0 || counter != 0 || cond != uint32(Warmup)):
		return fmt.Errorf("core: SPOT state claims progress before the first observation")
	}
	s.idx = int(idx)
	s.counter = int(counter)
	s.last = synth.Activity(last)
	s.hasLast = hasLast == 1
	s.lastCondition = Condition(cond)
	return nil
}

var _ Controller = (*SPOT)(nil)
var _ StatefulController = (*SPOT)(nil)

// TransitionTable renders the FSM's states and conditions as a small text
// table (the reproduction's stand-in for the paper's Fig. 4 diagram).
func (s *SPOT) TransitionTable() string {
	out := "state  config        on-match                on-change\n"
	for i, cfg := range s.states {
		match := fmt.Sprintf("C1 count, C2@%d -> S%d", s.stabilityTicks, i+1)
		if i == len(s.states)-1 {
			match = "C4 stay"
		}
		change := "C3 -> S0"
		if s.confThreshold > 0 {
			change = fmt.Sprintf("C3 -> S0 if conf >= %.2f", s.confThreshold)
		}
		out += fmt.Sprintf("S%-5d %-13s %-23s %s\n", i, cfg.Name(), match, change)
	}
	return out
}
