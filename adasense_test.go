package adasense_test

import (
	"bytes"
	"sync"
	"testing"

	"adasense"
	"adasense/internal/core"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/sim"
)

var (
	sysOnce sync.Once
	sysInst *adasense.System
	sysAcc  float64
	sysErr  error
)

func trainedSystem(t *testing.T) (*adasense.System, float64) {
	t.Helper()
	sysOnce.Do(func() {
		sysInst, sysAcc, sysErr = adasense.TrainSystem(adasense.TrainingConfig{
			Windows: 2400, Epochs: 40, Seed: 7,
		})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst, sysAcc
}

func TestTrainSystemAccuracy(t *testing.T) {
	_, acc := trainedSystem(t)
	if acc < 0.90 {
		t.Fatalf("held-out accuracy = %v, want >= 0.90", acc)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sys, _ := trainedSystem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := adasense.LoadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Network.In != sys.Network.In {
		t.Fatal("round trip lost dimensions")
	}
	if _, err := loaded.NewPipeline(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := adasense.LoadSystem(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPublicTableIAndStates(t *testing.T) {
	if len(adasense.TableI()) != 16 {
		t.Fatal("TableI size wrong")
	}
	states := adasense.ParetoStates()
	if len(states) != 4 || states[0].Name() != "F100_A128" {
		t.Fatalf("ParetoStates = %v", states)
	}
	p := adasense.DefaultPowerModel()
	if p.CurrentUA(states[0]) != 180 {
		t.Fatal("power model wrong")
	}
}

func TestParseActivity(t *testing.T) {
	a, err := adasense.ParseActivity("walk")
	if err != nil || a != adasense.Walk {
		t.Fatalf("ParseActivity = %v, %v", a, err)
	}
}

func TestEndToEndSimulation(t *testing.T) {
	sys, _ := trainedSystem(t)
	pipe, err := sys.NewPipeline()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := adasense.NewSchedule([]adasense.Segment{
		{Activity: adasense.Sit, Duration: 60},
		{Activity: adasense.Walk, Duration: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Spec{
		Motion:     adasense.NewMotion(sched, 11),
		Controller: adasense.NewSPOTWithConfidence(8),
		Classifier: pipe,
	}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy() < 0.80 {
		t.Fatalf("end-to-end accuracy = %v", res.Accuracy())
	}
	if res.AvgSensorCurrentUA >= 180 {
		t.Fatal("SPOT saved nothing")
	}
}

func TestEngineStreaming(t *testing.T) {
	sys, _ := trainedSystem(t)
	pipe, err := sys.NewPipeline()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(pipe, adasense.NewSPOT(5), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the engine with simulated "hardware" batches.
	sched, err := adasense.NewSchedule([]adasense.Segment{{Activity: adasense.Stand, Duration: 30}})
	if err != nil {
		t.Fatal(err)
	}
	motion := adasense.NewMotion(sched, 17)
	sampler := newTestSampler(19)
	events := 0
	for tick := 0; tick < 30; tick++ {
		b := sampler.Sample(motion, eng.Config(), float64(tick), float64(tick)+1)
		ev, err := eng.Push(b)
		if err != nil {
			t.Fatal(err)
		}
		events += len(ev)
	}
	if events < 25 {
		t.Fatalf("30 s of streaming produced %d events", events)
	}
	// A stable stand must have walked SPOT off the top configuration.
	if eng.Config() == adasense.ParetoStates()[0] {
		t.Fatal("engine never descended on a stable activity")
	}
}

func TestCustomSPOTAndSchedules(t *testing.T) {
	if _, err := adasense.NewCustomSPOT(nil, 5, 0.5); err == nil {
		t.Fatal("empty states accepted")
	}
	spot, err := adasense.NewCustomSPOT(adasense.ParetoStates()[:2], 5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if spot.NumStates() != 2 {
		t.Fatal("custom states lost")
	}
	s := adasense.RandomSchedule(3, 300, 10, 30)
	if s.Total() != 300 {
		t.Fatalf("schedule total = %v", s.Total())
	}
	s2 := adasense.SettingSchedule(4, adasense.LowChange, 300)
	for _, seg := range s2.Segments()[:len(s2.Segments())-1] {
		if seg.Duration < 60 {
			t.Fatalf("Low setting dwell %v below a minute", seg.Duration)
		}
	}
}

// newTestSampler builds a sensor sampler for engine streaming tests.
func newTestSampler(seed uint64) *sensor.Sampler {
	return sensor.NewSampler(sensor.DefaultNoiseModel(), rng.New(seed))
}
