package core

import (
	"math"
	"testing"

	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

func engineFixture(t *testing.T, ctl Controller) (*Engine, *synth.Motion, *sensor.Sampler) {
	t.Helper()
	p := trainedPipeline(t)
	e, err := NewEngine(p, ctl, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched := synth.MustSchedule(
		synth.Segment{Activity: synth.Sit, Duration: 60},
		synth.Segment{Activity: synth.Walk, Duration: 60},
	)
	m := synth.NewMotion(synth.DefaultModels(), sched, rng.New(101))
	s := sensor.NewSampler(sensor.DefaultNoiseModel(), rng.New(102))
	return e, m, s
}

func TestNewEngineValidation(t *testing.T) {
	p := trainedPipeline(t)
	if _, err := NewEngine(nil, NewBaseline(), 0, 0); err == nil {
		t.Fatal("nil pipeline accepted")
	}
	if _, err := NewEngine(p, nil, 0, 0); err == nil {
		t.Fatal("nil controller accepted")
	}
	if _, err := NewEngine(p, NewBaseline(), 1, 2); err == nil {
		t.Fatal("window < hop accepted")
	}
}

func TestEngineEmitsOneEventPerHop(t *testing.T) {
	e, m, s := engineFixture(t, NewBaseline())
	total := 0
	for tick := 0; tick < 10; tick++ {
		b := s.Sample(m, e.Config(), float64(tick), float64(tick)+1)
		events, err := e.Push(b)
		if err != nil {
			t.Fatal(err)
		}
		total += len(events)
	}
	if total != 10 {
		t.Fatalf("10 s of pushes produced %d events, want 10", total)
	}
}

func TestEngineHandlesPartialPushes(t *testing.T) {
	e, m, s := engineFixture(t, NewBaseline())
	// Push in 0.25 s slivers: one event every four pushes.
	events := 0
	for i := 0; i < 40; i++ {
		tt := float64(i) * 0.25
		b := s.Sample(m, e.Config(), tt, tt+0.25)
		ev, err := e.Push(b)
		if err != nil {
			t.Fatal(err)
		}
		events += len(ev)
	}
	if events != 10 {
		t.Fatalf("10 s in slivers produced %d events, want 10", events)
	}
}

func TestEngineMultiHopBatch(t *testing.T) {
	e, m, s := engineFixture(t, NewBaseline())
	// A single 5 s push yields 5 events under a fixed controller.
	b := s.Sample(m, e.Config(), 0, 5)
	events, err := e.Push(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("5 s batch produced %d events, want 5", len(events))
	}
}

func TestEngineWalksSPOTDown(t *testing.T) {
	spot := NewPaperSPOT(3)
	e, m, s := engineFixture(t, spot)
	floor := sensor.ParetoStates()[3]
	sawChange := false
	for tick := 0; tick < 30 && e.Config() != floor; tick++ {
		b := s.Sample(m, e.Config(), float64(tick), float64(tick)+1)
		events, err := e.Push(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if ev.ConfigChanged {
				sawChange = true
				if ev.Config != e.Config() {
					t.Fatal("event config and engine config disagree after switch")
				}
			}
		}
	}
	if !sawChange {
		t.Fatal("no configuration change was emitted")
	}
	if e.Config() != floor {
		t.Fatalf("engine did not reach the floor state: %v", e.Config().Name())
	}
}

func TestEnginePushRejectsWrongConfig(t *testing.T) {
	e, m, s := engineFixture(t, NewPaperSPOT(2))
	wrong := sensor.Config{FreqHz: 25, AvgWindow: 32}
	if wrong == e.Config() {
		t.Fatal("fixture broken")
	}
	b := s.Sample(m, wrong, 0, 1)
	if _, err := e.Push(b); err == nil {
		t.Fatal("mismatched config accepted")
	}
}

func TestEngineDiscardsTailOnSwitch(t *testing.T) {
	// A 5 s push under a zero-threshold SPOT must stop at the first tick:
	// the config changed, so the remaining 4 s are unusable.
	spot := NewPaperSPOT(0)
	e, m, s := engineFixture(t, spot)
	// Warm up: first tick is SPOT's warmup (no change).
	b := s.Sample(m, e.Config(), 0, 1)
	if _, err := e.Push(b); err != nil {
		t.Fatal(err)
	}
	b = s.Sample(m, e.Config(), 1, 6)
	events, err := e.Push(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].ConfigChanged {
		t.Fatalf("expected a single config-changing event, got %d", len(events))
	}
}

func TestEngineMultiHopBatchStraddlesSwitch(t *testing.T) {
	// A multi-hop batch that straddles a configuration switch must stop
	// at the switching tick, discard the stale tail, and resume cleanly
	// once the caller supplies data at the new configuration.
	spot := NewPaperSPOT(0)
	e, m, s := engineFixture(t, spot)
	top := e.Config()

	// Warm up: first tick is SPOT's warmup (no change).
	if _, err := e.Push(s.Sample(m, e.Config(), 0, 1)); err != nil {
		t.Fatal(err)
	}

	// Push 1..6: the tick at t=2 switches (threshold 0 steps down after
	// one stable observation), so only one of the five hops completes.
	events, err := e.Push(s.Sample(m, top, 1, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].ConfigChanged {
		t.Fatalf("straddling batch produced %d events (changed=%v), want 1 changed",
			len(events), len(events) > 0 && events[0].ConfigChanged)
	}
	next := events[0].Config
	if next == top || e.Config() != next {
		t.Fatalf("engine config = %v after switch to %v", e.Config().Name(), next.Name())
	}

	// Data still sampled at the old configuration must now be rejected:
	// the caller failed to apply the switch.
	if _, err := e.Push(s.Sample(m, top, 2, 3)); err == nil {
		t.Fatal("stale-configuration batch accepted after the switch")
	}

	// Resuming at the (current) configuration picks the loop back up:
	// every subsequent second completes exactly one tick, with the first
	// post-switch window starting empty. Threshold 0 keeps stepping down
	// until the floor, so sample at e.Config() each second.
	for tick := 2; tick < 6; tick++ {
		events, err := e.Push(s.Sample(m, e.Config(), float64(tick), float64(tick)+1))
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 1 {
			t.Fatalf("post-switch second %d produced %d events, want 1", tick, len(events))
		}
	}
	if e.Config() != sensor.ParetoStates()[3] {
		t.Fatalf("threshold-0 SPOT should have reached the floor, at %v", e.Config().Name())
	}
}

func TestEngineReset(t *testing.T) {
	spot := NewPaperSPOT(1)
	e, m, s := engineFixture(t, spot)
	for tick := 0; tick < 10; tick++ {
		b := s.Sample(m, e.Config(), float64(tick), float64(tick)+1)
		if _, err := e.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	if e.Config() == sensor.ParetoStates()[0] {
		t.Fatal("setup: engine never descended")
	}
	e.Reset()
	if e.Config() != sensor.ParetoStates()[0] {
		t.Fatal("Reset did not restore the initial configuration")
	}
}

func TestEngineClassificationsAreSane(t *testing.T) {
	e, m, s := engineFixture(t, NewPaperSPOTWithConfidence(5))
	correct, total := 0, 0
	for tick := 0; tick < 120; tick++ {
		b := s.Sample(m, e.Config(), float64(tick), float64(tick)+1)
		events, err := e.Push(b)
		if err != nil {
			t.Fatal(err)
		}
		truth := m.Schedule().ActivityAt(float64(tick) + 0.5)
		for _, ev := range events {
			total++
			if ev.Classification.Activity == truth {
				correct++
			}
		}
	}
	if total < 100 {
		t.Fatalf("only %d events over 120 s", total)
	}
	if acc := float64(correct) / float64(total); acc < 0.75 {
		t.Fatalf("engine accuracy = %v", acc)
	}
}

// TestEnginePushAppendMatchesPush: PushAppend appends to dst exactly the
// events a twin engine's Push returns, keeps what dst held, and returns
// dst unchanged when it refuses a batch.
func TestEnginePushAppendMatchesPush(t *testing.T) {
	e, m, s := engineFixture(t, NewBaseline())
	twin, _, _ := engineFixture(t, NewBaseline())
	sentinel := Event{Config: sensor.ParetoStates()[3]}
	dst := []Event{sentinel}
	for i := 0; i < 6; i++ {
		t0 := 2.5 * float64(i)
		b := s.Sample(m, e.Config(), t0, t0+2.5) // two or three ticks per push
		want, err := twin.Push(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.PushAppend(dst[:1], b)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != sentinel || len(got)-1 != len(want) {
			t.Fatalf("push %d: PushAppend gave %d events after the sentinel, Push %d", i, len(got)-1, len(want))
		}
		for k := range want {
			if got[1+k] != want[k] {
				t.Fatalf("push %d event %d: PushAppend %+v, Push %+v", i, k, got[1+k], want[k])
			}
		}
		dst = got
	}
	bad := s.Sample(m, e.Config(), 20, 21)
	bad.X[0] = math.NaN()
	wrong := s.Sample(m, sensor.ParetoStates()[3], 20, 21)
	for _, b := range []*sensor.Batch{bad, wrong} {
		if got, err := e.PushAppend(dst[:1], b); err == nil || len(got) != 1 || got[0] != sentinel {
			t.Fatalf("refused push = %d events, %v; want dst unchanged and an error", len(got), err)
		}
	}
}
