package core

import (
	"strings"
	"testing"
	"testing/quick"

	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

func TestNewSPOTValidation(t *testing.T) {
	if _, err := NewSPOTWithConfidence(nil, 3, 0); err == nil {
		t.Fatal("empty state list accepted")
	}
	if _, err := NewSPOTWithConfidence([]sensor.Config{{FreqHz: -1, AvgWindow: 8}}, 3, 0); err == nil {
		t.Fatal("invalid state accepted")
	}
	if _, err := NewSPOTWithConfidence(sensor.ParetoStates(), -1, 0); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := NewSPOTWithConfidence(sensor.ParetoStates(), 3, 1.5); err == nil {
		t.Fatal("confidence > 1 accepted")
	}
}

func TestSPOTStartsAtHighestPower(t *testing.T) {
	s := NewPaperSPOT(5)
	if s.Config() != sensor.ParetoStates()[0] {
		t.Fatalf("initial config = %v", s.Config().Name())
	}
	if s.StateIndex() != 0 || s.LastCondition() != Warmup {
		t.Fatal("initial FSM state wrong")
	}
}

func TestSPOTWalksDownCountOnce(t *testing.T) {
	// Default mode: wait one threshold, then one step per stable tick.
	const thr = 3
	s := NewPaperSPOT(thr)
	if s.Mode() != CountOnce {
		t.Fatalf("default mode = %v, want count-once", s.Mode())
	}
	s.Observe(synth.Walk, 1) // warmup
	if s.LastCondition() != Warmup {
		t.Fatalf("first observation condition = %v", s.LastCondition())
	}
	// thr-1 C1 ticks at state 0.
	for i := 0; i < thr-1; i++ {
		s.Observe(synth.Walk, 1)
		if s.LastCondition() != C1 || s.StateIndex() != 0 {
			t.Fatalf("tick %d: condition %v at state %d", i, s.LastCondition(), s.StateIndex())
		}
	}
	// Then one C2 per tick until the floor.
	for state := 1; state < s.NumStates(); state++ {
		s.Observe(synth.Walk, 1)
		if s.LastCondition() != C2 || s.StateIndex() != state {
			t.Fatalf("descent tick: condition %v at state %d, want C2 at %d",
				s.LastCondition(), s.StateIndex(), state)
		}
	}
	// In the last state matches are absorbed (C4).
	for i := 0; i < 10; i++ {
		s.Observe(synth.Walk, 1)
		if s.LastCondition() != C4 {
			t.Fatalf("last state condition = %v, want C4", s.LastCondition())
		}
		if s.StateIndex() != s.NumStates()-1 {
			t.Fatal("left the absorbing state on a match")
		}
	}
}

func TestSPOTWalksDownCountPerState(t *testing.T) {
	const thr = 3
	s := NewPaperSPOT(thr)
	s.SetMode(CountPerState)
	s.Observe(synth.Walk, 1) // warmup
	// Each state hop needs thr matching observations: thr-1 C1s then a C2.
	for state := 0; state < s.NumStates()-1; state++ {
		for i := 0; i < thr-1; i++ {
			s.Observe(synth.Walk, 1)
			if s.LastCondition() != C1 {
				t.Fatalf("state %d obs %d: condition = %v, want C1", state, i, s.LastCondition())
			}
			if s.StateIndex() != state {
				t.Fatalf("left state %d early", state)
			}
		}
		s.Observe(synth.Walk, 1)
		if s.LastCondition() != C2 {
			t.Fatalf("state %d: condition = %v, want C2", state, s.LastCondition())
		}
		if s.StateIndex() != state+1 {
			t.Fatalf("C2 did not advance to state %d", state+1)
		}
		if s.Counter() != 0 {
			t.Fatal("C2 did not reset the counter in count-per-state mode")
		}
	}
}

func TestSPOTSetModeValidation(t *testing.T) {
	s := NewPaperSPOT(3)
	s.Observe(synth.Walk, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetMode mid-run did not panic")
			}
		}()
		s.SetMode(CountPerState)
	}()
	s2 := NewPaperSPOT(3)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mode did not panic")
		}
	}()
	s2.SetMode(DescendMode(9))
}

func TestDescendModeString(t *testing.T) {
	if CountOnce.String() != "count-once" || CountPerState.String() != "count-per-state" {
		t.Fatal("mode names wrong")
	}
	if DescendMode(7).String() != "mode(7)" {
		t.Fatal("unknown mode name wrong")
	}
}

func TestSPOTSnapsBackOnChange(t *testing.T) {
	s := NewPaperSPOT(2)
	s.Observe(synth.Sit, 1)
	for i := 0; i < 20; i++ {
		s.Observe(synth.Sit, 1)
	}
	if s.StateIndex() != s.NumStates()-1 {
		t.Fatal("did not reach the floor state")
	}
	s.Observe(synth.Walk, 1)
	if s.LastCondition() != C3 {
		t.Fatalf("condition = %v, want C3", s.LastCondition())
	}
	if s.StateIndex() != 0 || s.Counter() != 0 {
		t.Fatal("C3 did not reset FSM")
	}
	// The remembered activity must now be the new one: another walk is a
	// match, not a change.
	s.Observe(synth.Walk, 1)
	if s.LastCondition() == C3 {
		t.Fatal("consecutive identical activities treated as a change")
	}
}

func TestSPOTZeroThresholdDescendsEachMatch(t *testing.T) {
	s := NewPaperSPOT(0)
	s.Observe(synth.Stand, 1)
	for i := 1; i < s.NumStates(); i++ {
		s.Observe(synth.Stand, 1)
		if s.StateIndex() != i {
			t.Fatalf("after %d matches state = %d", i, s.StateIndex())
		}
	}
}

func TestSPOTConfidenceGate(t *testing.T) {
	s := MustSPOT(sensor.ParetoStates(), 1, 0.85)
	s.Observe(synth.Sit, 0.99)
	for i := 0; i < 8; i++ {
		s.Observe(synth.Sit, 0.99)
	}
	floor := s.NumStates() - 1
	if s.StateIndex() != floor {
		t.Fatal("did not reach floor")
	}
	// A low-confidence change must be ignored entirely.
	s.Observe(synth.Walk, 0.60)
	if s.LastCondition() != Suppressed {
		t.Fatalf("condition = %v, want Suppressed", s.LastCondition())
	}
	if s.StateIndex() != floor {
		t.Fatal("low-confidence change moved the FSM")
	}
	// The remembered activity is unchanged: a confident sit remains a
	// match.
	s.Observe(synth.Sit, 0.99)
	if s.LastCondition() != C4 {
		t.Fatalf("after suppressed change, sit gave %v, want C4", s.LastCondition())
	}
	// A high-confidence change still resets.
	s.Observe(synth.Walk, 0.95)
	if s.StateIndex() != 0 || s.LastCondition() != C3 {
		t.Fatal("high-confidence change did not reset")
	}
}

func TestSPOTConfidenceGateInactiveAtTop(t *testing.T) {
	// A low-confidence change at state 0 must still update the remembered
	// activity: the gate protects accumulated savings, of which state 0
	// has none. Otherwise a wrong warm-up freezes the FSM.
	s := MustSPOT(sensor.ParetoStates(), 2, 0.85)
	s.Observe(synth.Sit, 0.40) // wrong, low-confidence warmup
	s.Observe(synth.Stand, 0.60)
	if s.LastCondition() != C3 {
		t.Fatalf("state-0 change gave %v, want C3 (gate inactive at top)", s.LastCondition())
	}
	// From now on, confident stands count toward descending.
	s.Observe(synth.Stand, 0.60)
	s.Observe(synth.Stand, 0.60)
	if s.StateIndex() != 1 {
		t.Fatalf("FSM did not descend after recovering from wrong warmup (state %d)", s.StateIndex())
	}
}

func TestSPOTPlainIgnoresConfidence(t *testing.T) {
	s := NewPaperSPOT(1)
	s.Observe(synth.Sit, 0.1)
	s.Observe(synth.Sit, 0.1)
	s.Observe(synth.Walk, 0.01) // plain SPOT: any change resets
	if s.LastCondition() != C3 {
		t.Fatalf("plain SPOT suppressed a change: %v", s.LastCondition())
	}
}

func TestSPOTReset(t *testing.T) {
	s := NewPaperSPOT(1)
	s.Observe(synth.Sit, 1)
	s.Observe(synth.Sit, 1)
	s.Observe(synth.Sit, 1)
	if s.StateIndex() == 0 {
		t.Fatal("setup failed to descend")
	}
	s.Reset()
	if s.StateIndex() != 0 || s.Counter() != 0 || s.LastCondition() != Warmup {
		t.Fatal("Reset incomplete")
	}
	// After reset the first observation is warmup again.
	s.Observe(synth.Walk, 1)
	if s.LastCondition() != Warmup {
		t.Fatal("post-reset observation should be warmup")
	}
}

// TestSPOTInvariants drives the FSM with random observation streams and
// checks structural invariants.
func TestSPOTInvariants(t *testing.T) {
	r := rng.New(77)
	f := func(seed uint16, thrRaw uint8, withConf, perState bool) bool {
		rr := rng.New(uint64(seed))
		thr := int(thrRaw % 10)
		conf := 0.0
		if withConf {
			conf = 0.85
		}
		s := MustSPOT(sensor.ParetoStates(), thr, conf)
		if perState {
			s.SetMode(CountPerState)
		}
		counterBound := thr + s.NumStates()
		if perState {
			counterBound = thr
		}
		prevIdx := 0
		for i := 0; i < 300; i++ {
			act := synth.Activity(rr.Intn(synth.NumActivities))
			c := rr.Float64()
			s.Observe(act, c)
			idx := s.StateIndex()
			// Invariant 1: state index in range.
			if idx < 0 || idx >= s.NumStates() {
				return false
			}
			// Invariant 2: moves are one step down or a snap to zero.
			if idx != prevIdx && idx != prevIdx+1 && idx != 0 {
				return false
			}
			// Invariant 3: counter bounded (threshold, plus the descent
			// span in count-once mode).
			if s.Counter() > counterBound {
				return false
			}
			// Invariant 4: condition consistent with movement.
			switch s.LastCondition() {
			case C2:
				if idx != prevIdx+1 {
					return false
				}
			case C3:
				if idx != 0 {
					return false
				}
			case C1, C4, Suppressed, Warmup:
				if idx != prevIdx {
					return false
				}
			}
			prevIdx = idx
		}
		return true
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSPOTPowerDescendsAlongStates(t *testing.T) {
	// The state list orders power high → low, so walking the FSM down
	// must never increase current.
	p := sensor.DefaultPowerModel()
	s := NewPaperSPOT(0)
	s.Observe(synth.Sit, 1)
	prev := p.CurrentUA(s.Config())
	for i := 0; i < s.NumStates(); i++ {
		s.Observe(synth.Sit, 1)
		cur := p.CurrentUA(s.Config())
		if cur > prev {
			t.Fatal("descending the FSM increased current")
		}
		prev = cur
	}
}

func TestConditionStrings(t *testing.T) {
	want := map[Condition]string{Warmup: "warmup", C1: "C1", C2: "C2", C3: "C3", C4: "C4", Suppressed: "suppressed"}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("Condition(%d).String() = %q", int(c), c.String())
		}
	}
	if Condition(42).String() != "condition(42)" {
		t.Fatal("unknown condition string wrong")
	}
}

func TestTransitionTable(t *testing.T) {
	s := NewPaperSPOTWithConfidence(7)
	tbl := s.TransitionTable()
	for _, want := range []string{"F100_A128", "F12.5_A8", "C4 stay", "conf >= 0.85"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("transition table missing %q:\n%s", want, tbl)
		}
	}
}

func TestBaselineController(t *testing.T) {
	b := NewBaseline()
	cfg := b.Config()
	b.Observe(synth.Walk, 1)
	b.Reset()
	if b.Config() != cfg || cfg != (sensor.Config{FreqHz: 100, AvgWindow: 128}) {
		t.Fatal("baseline controller must pin F100_A128")
	}
}
