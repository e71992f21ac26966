package features

import (
	"math"
	"testing"

	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

func sampleBatch(t *testing.T, act synth.Activity, cfg sensor.Config, seed uint64) *sensor.Batch {
	t.Helper()
	sched := synth.MustSchedule(synth.Segment{Activity: act, Duration: 20})
	m := synth.NewMotion(synth.DefaultModels(), sched, rng.New(seed))
	s := sensor.NewSampler(sensor.DefaultNoiseModel(), rng.New(seed+1000))
	return s.Sample(m, cfg, 5, 7)
}

// TestSizeAndNames pins the feature layout in extraction order: per axis
// mean, std and then the 1/2/3 Hz bins (mean_x, std_x, fft1_x, …), for
// x, then y, then z.
func TestSizeAndNames(t *testing.T) {
	e := MustExtractor(nil)
	if e.Size() != 15 {
		t.Fatalf("default size = %d, want 15", e.Size())
	}
	cfg := sensor.ParetoStates()[0]
	b := &sensor.Batch{Config: cfg, X: make([]float64, 200), Y: make([]float64, 200), Z: make([]float64, 200)}
	for i := range b.X {
		b.X[i] = 2 + math.Sin(2*math.Pi*float64(i)/cfg.FreqHz) // 1 Hz tone
		b.Y[i] = -3
	}
	f := e.Extract(b, nil)
	if len(f) != 15 {
		t.Fatalf("len(features) = %d", len(f))
	}
	want := map[int]float64{0: 2, 1: 1 / math.Sqrt2, 3: 0, 4: 0, 5: -3, 6: 0, 7: 0}
	for i, v := range want {
		if math.Abs(f[i]-v) > 1e-9 {
			t.Fatalf("feature %d = %v, want %v (layout %v)", i, f[i], v, f[:8])
		}
	}
	if f[2] < 0.1 {
		t.Fatalf("fft1_x = %v, want the 1 Hz tone's magnitude", f[2])
	}
}

func TestNewExtractorValidation(t *testing.T) {
	if _, err := NewExtractor([]float64{1, -2}); err == nil {
		t.Fatal("negative bin frequency accepted")
	}
	e, err := NewExtractor([]float64{0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 12 {
		t.Fatalf("custom size = %d, want 12", e.Size())
	}
}

func TestSizeInvariantAcrossConfigs(t *testing.T) {
	// The defining property: identical feature vector length for every
	// sensor configuration.
	e := MustExtractor(nil)
	for _, cfg := range sensor.TableI() {
		b := sampleBatch(t, synth.Walk, cfg, 42)
		got := e.Extract(b, nil)
		if len(got) != 15 {
			t.Fatalf("%v: feature size %d", cfg.Name(), len(got))
		}
	}
}

func TestMeanFeatureCapturesGravity(t *testing.T) {
	e := MustExtractor(nil)
	b := sampleBatch(t, synth.LieDown, sensor.Config{FreqHz: 100, AvgWindow: 128}, 7)
	f := e.Extract(b, nil)
	// Lying down: z axis carries most of gravity in our model.
	meanZ := f[10]
	if meanZ < 7 {
		t.Fatalf("lie-down mean_z = %v, want close to +g", meanZ)
	}
	magnitude := math.Sqrt(f[0]*f[0] + f[5]*f[5] + f[10]*f[10])
	if math.Abs(magnitude-synth.Gravity) > 1.0 {
		t.Fatalf("gravity magnitude from means = %v", magnitude)
	}
}

func TestStdSeparatesStaticFromDynamic(t *testing.T) {
	e := MustExtractor(nil)
	cfg := sensor.Config{FreqHz: 100, AvgWindow: 128}
	sit := e.Extract(sampleBatch(t, synth.Sit, cfg, 11), nil)
	walk := e.Extract(sampleBatch(t, synth.Walk, cfg, 12), nil)
	if walk[6] < 4*sit[6] { // std_y
		t.Fatalf("walk std_y (%v) not well above sit std_y (%v)", walk[6], sit[6])
	}
}

func TestSpectralBinsSeparateGaits(t *testing.T) {
	e := MustExtractor(nil)
	cfg := sensor.Config{FreqHz: 100, AvgWindow: 128}
	// Average over several windows to beat per-window noise.
	avgFeat := func(act synth.Activity, seedBase uint64) []float64 {
		acc := make([]float64, 15)
		const n = 8
		for i := uint64(0); i < n; i++ {
			f := e.Extract(sampleBatch(t, act, cfg, seedBase+i), nil)
			for j := range acc {
				acc[j] += f[j] / n
			}
		}
		return acc
	}
	up := avgFeat(synth.Upstairs, 100)     // fundamental ~1.1-1.4 Hz -> 1 Hz bin
	down := avgFeat(synth.Downstairs, 200) // fundamental ~2.1-2.4 Hz -> 2 Hz bin
	// fft bins for y axis sit at indices 7,8,9 = 1,2,3 Hz.
	if up[7] <= up[8] {
		t.Fatalf("upstairs should peak in the 1 Hz bin: bins=%v", up[7:10])
	}
	if down[8] <= down[7] {
		t.Fatalf("downstairs should peak in the 2 Hz bin: bins=%v", down[7:10])
	}
}

func TestRateInvarianceOfFeatureMeaning(t *testing.T) {
	// The same motion observed at two Pareto configurations must produce
	// *comparable* features (not identical: noise and attenuation differ,
	// but the physical scale must match within tens of percent).
	sched := synth.MustSchedule(synth.Segment{Activity: synth.Walk, Duration: 20})
	m := synth.NewMotion(synth.DefaultModels(), sched, rng.New(55))
	s := sensor.NewSampler(sensor.DefaultNoiseModel(), rng.New(56))
	e := MustExtractor(nil)
	fHigh := e.Extract(s.Sample(m, sensor.Config{FreqHz: 100, AvgWindow: 128}, 5, 7), nil)
	fLow := e.Extract(s.Sample(m, sensor.Config{FreqHz: 12.5, AvgWindow: 16}, 5, 7), nil)
	// Gravity means must agree closely.
	for _, idx := range []int{0, 5, 10} {
		if math.Abs(fHigh[idx]-fLow[idx]) > 1.0 {
			t.Fatalf("mean feature %d differs across rates: %v vs %v", idx, fHigh[idx], fLow[idx])
		}
	}
}

func TestExtractReusesDst(t *testing.T) {
	e := MustExtractor(nil)
	b := sampleBatch(t, synth.Sit, sensor.Config{FreqHz: 50, AvgWindow: 16}, 3)
	buf := make([]float64, 15)
	out := e.Extract(b, buf)
	if &out[0] != &buf[0] {
		t.Fatal("Extract did not reuse dst")
	}
}

func TestExtractDeterministic(t *testing.T) {
	e := MustExtractor(nil)
	b := sampleBatch(t, synth.Walk, sensor.Config{FreqHz: 50, AvgWindow: 16}, 9)
	a := append([]float64(nil), e.Extract(b, nil)...)
	c := e.Extract(b, nil)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("Extract not deterministic on same batch")
		}
	}
}

func TestBinFreqsCopy(t *testing.T) {
	e := MustExtractor([]float64{1, 2})
	got := e.BinFreqsHz()
	got[0] = 99
	if e.BinFreqsHz()[0] == 99 {
		t.Fatal("BinFreqsHz leaked internal slice")
	}
}

func BenchmarkExtract200Samples(b *testing.B) {
	sched := synth.MustSchedule(synth.Segment{Activity: synth.Walk, Duration: 20})
	m := synth.NewMotion(synth.DefaultModels(), sched, rng.New(1))
	s := sensor.NewSampler(sensor.DefaultNoiseModel(), rng.New(2))
	batch := s.Sample(m, sensor.Config{FreqHz: 100, AvgWindow: 128}, 5, 7)
	e := MustExtractor(nil)
	dst := make([]float64, e.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Extract(batch, dst)
	}
}
