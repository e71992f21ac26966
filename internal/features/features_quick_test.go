package features

import (
	"math"
	"testing"
	"testing/quick"

	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

// TestExtractAlwaysFinite drives the extractor with random activities,
// configurations and window lengths and requires every feature to be
// finite and every σ/spectral feature non-negative.
func TestExtractAlwaysFinite(t *testing.T) {
	e := MustExtractor(nil)
	models := synth.DefaultModels()
	table := sensor.TableI()
	f := func(seed uint16, actRaw, cfgRaw, durRaw uint8) bool {
		r := rng.New(uint64(seed))
		act := synth.Activity(int(actRaw) % synth.NumActivities)
		cfg := table[int(cfgRaw)%len(table)]
		dur := 0.25 + float64(durRaw%8)*0.25 // 0.25 .. 2 s windows
		sched := synth.MustSchedule(synth.Segment{Activity: act, Duration: 10})
		m := synth.NewMotion(models, sched, r.Split(1))
		s := sensor.NewSampler(sensor.DefaultNoiseModel(), r.Split(2))
		b := s.Sample(m, cfg, 3, 3+dur)
		feat := e.Extract(b, nil)
		if len(feat) != e.Size() {
			return false
		}
		perAxis := e.Size() / 3
		for i, v := range feat {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			// std and spectral magnitudes are non-negative by
			// construction; only the mean (index 0 per axis) may be
			// negative.
			if i%perAxis != 0 && v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWaveletExtractorFinite is the same property for the wavelet family.
func TestWaveletExtractorFinite(t *testing.T) {
	e, err := NewWaveletExtractor(5)
	if err != nil {
		t.Fatal(err)
	}
	models := synth.DefaultModels()
	f := func(seed uint16, actRaw uint8) bool {
		r := rng.New(uint64(seed))
		act := synth.Activity(int(actRaw) % synth.NumActivities)
		sched := synth.MustSchedule(synth.Segment{Activity: act, Duration: 8})
		m := synth.NewMotion(models, sched, r.Split(1))
		s := sensor.NewSampler(sensor.DefaultNoiseModel(), r.Split(2))
		b := s.Sample(m, sensor.Config{FreqHz: 50, AvgWindow: 16}, 2, 4)
		for _, v := range e.Extract(b, nil) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWaveletExtractorValidation(t *testing.T) {
	if _, err := NewWaveletExtractor(0); err == nil {
		t.Fatal("0 levels accepted")
	}
	if _, err := NewWaveletExtractor(9); err == nil {
		t.Fatal("9 levels accepted")
	}
	e, err := NewWaveletExtractor(3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 3*(2+4) {
		t.Fatalf("Size=%d, want 3 axes × (mean, std, 3 details + approximation)", e.Size())
	}
}

// TestWaveletSeparatesStaticFromDynamic confirms the wavelet family
// carries the same basic class signal as the default features.
func TestWaveletSeparatesStaticFromDynamic(t *testing.T) {
	e, err := NewWaveletExtractor(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sensor.Config{FreqHz: 100, AvgWindow: 128}
	sit := e.Extract(sampleBatch(t, synth.Sit, cfg, 61), nil)
	walk := e.Extract(sampleBatch(t, synth.Walk, cfg, 62), nil)
	// Total band energy (y axis): locomotion must dwarf posture.
	perAxis := 2 + 5
	sumBands := func(f []float64) float64 {
		s := 0.0
		for i := perAxis + 2; i < 2*perAxis; i++ {
			s += f[i]
		}
		return s
	}
	if sumBands(walk) < 10*sumBands(sit) {
		t.Fatalf("walk band energy %v not well above sit %v", sumBands(walk), sumBands(sit))
	}
}
