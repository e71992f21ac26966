package features

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"adasense/internal/dsp"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

// extractReference is Extract written the plain way: per axis, detrend a
// copy, take its standard deviation and then one Goertzel bin at a time
// of the detrended copy. Extract must match it bit for bit.
func extractReference(e *Extractor, b *sensor.Batch) []float64 {
	perAxis := 2 + len(e.binFreqs)
	out := make([]float64, 3*perAxis)
	for ax := 0; ax < 3; ax++ {
		x := append([]float64(nil), b.Axis(ax)...)
		base := ax * perAxis
		out[base] = dsp.Detrend(x)
		out[base+1] = dsp.StdDev(x)
		for k, f := range e.binFreqs {
			out[base+2+k] = dsp.Goertzel(x, f, b.Config.FreqHz)
		}
	}
	return out
}

// checkExtractMatches requires Extract of b to equal the reference bit
// for bit, both into a fresh vector and into a reused one that holds an
// earlier window's features.
func checkExtractMatches(t *testing.T, e *Extractor, b *sensor.Batch) {
	t.Helper()
	want := extractReference(e, b)
	reused := make([]float64, e.Size())
	for i := range reused {
		reused[i] = math.NaN()
	}
	for _, dst := range [][]float64{nil, reused} {
		got := e.Extract(b, dst)
		if len(got) != len(want) {
			t.Fatalf("%d features, reference %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s n=%d bins=%v: feature %d = %v (%#x), reference %v (%#x)",
					b.Config.Name(), b.Len(), e.binFreqs, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// referenceBinSets are the spectral bin sets the reference tests cover:
// 0 to 6 bins, so every split into three-bin passes and leftover bins
// occurs, plus the 0.5 Hz grid up to 3 Hz.
func referenceBinSets() [][]float64 {
	return [][]float64{
		{}, {1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4, 5, 6},
		{0.5, 1, 1.5, 2, 2.5, 3},
	}
}

// randomBatch returns an n-sample batch of Gaussian readings around a
// different offset per axis.
func randomBatch(r *rng.Source, cfg sensor.Config, n int) *sensor.Batch {
	b := &sensor.Batch{Config: cfg, X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
	for i := 0; i < n; i++ {
		b.X[i] = r.NormSigma(0.3, 2)
		b.Y[i] = r.NormSigma(synth.Gravity, 0.5)
		b.Z[i] = r.NormSigma(-4, 30)
	}
	return b
}

func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-exact results are pinned on amd64, not %s", runtime.GOARCH)
	}
}

func TestExtractMatchesReference(t *testing.T) {
	skipOffAMD64(t)
	for ci, cfg := range sensor.TableI() {
		t.Run(cfg.Name(), func(t *testing.T) {
			r := rng.New(uint64(100 + ci))
			var batches []*sensor.Batch
			for _, n := range []int{1, 2, 3, 5, cfg.BatchSize(1), cfg.BatchSize(2), 400} {
				batches = append(batches, randomBatch(r, cfg, n))
			}
			constant := &sensor.Batch{Config: cfg}
			for i := 0; i < cfg.BatchSize(2); i++ {
				constant.X = append(constant.X, 0.1)
				constant.Y = append(constant.Y, synth.Gravity)
				constant.Z = append(constant.Z, -1.7)
			}
			batches = append(batches, constant, sampleBatch(t, synth.Walk, cfg, uint64(ci)))
			for _, bins := range referenceBinSets() {
				e := MustExtractor(bins)
				for _, b := range batches {
					checkExtractMatches(t, e, b)
				}
			}
		})
	}
}

// TestExtractCoeffs checks the Goertzel coefficients NewExtractor
// precomputes for each Table I rate against dsp.GoertzelCoeff bit for
// bit, and holds Extract to the reference at rates outside Table I,
// where it computes them on the fly.
func TestExtractCoeffs(t *testing.T) {
	skipOffAMD64(t)
	r := rng.New(7)
	for _, bins := range referenceBinSets() {
		e := MustExtractor(bins)
		for _, cfg := range sensor.TableI() {
			pre := e.coeffsAt(cfg.FreqHz)
			if len(pre) != len(bins) {
				t.Fatalf("%s bins=%v: %d precomputed coefficients", cfg.Name(), bins, len(pre))
			}
			for k, f := range bins {
				if want := dsp.GoertzelCoeff(f, cfg.FreqHz); math.Float64bits(pre[k]) != math.Float64bits(want) {
					t.Fatalf("%s bin %v Hz: coefficient %v, dsp.GoertzelCoeff %v", cfg.Name(), f, pre[k], want)
				}
			}
		}
		for _, fs := range []float64{200, 37, 12.25, 3.3} {
			if e.coeffsAt(fs) != nil {
				t.Fatalf("%v Hz is not a Table I rate but has precomputed coefficients", fs)
			}
			cfg := sensor.Config{FreqHz: fs, AvgWindow: 8}
			for _, n := range []int{1, 3, cfg.BatchSize(2)} {
				checkExtractMatches(t, e, randomBatch(r, cfg, n))
			}
		}
	}
}

// TestExtractDegenerateBatches covers the batches whose features are
// zeros by guard rather than by arithmetic: an empty batch, and spectral
// bins without a sampling rate.
func TestExtractDegenerateBatches(t *testing.T) {
	e := MustExtractor(nil)
	empty := &sensor.Batch{Config: sensor.ParetoStates()[0]}
	checkExtractMatches(t, e, empty)
	for i, v := range e.Extract(empty, nil) {
		if math.Float64bits(v) != 0 {
			t.Fatalf("feature %d of an empty batch = %v, want +0", i, v)
		}
	}
	rateless := randomBatch(rng.New(1), sensor.Config{}, 20)
	checkExtractMatches(t, e, rateless)
	if f := e.Extract(rateless, nil); f[2] != 0 || f[1] == 0 {
		t.Fatalf("rateless batch features %v, want a std but no spectrum", f)
	}
}

func TestExtractRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged batch accepted")
		}
	}()
	b := &sensor.Batch{Config: sensor.ParetoStates()[0], X: []float64{1, 2}, Y: []float64{1}, Z: []float64{1, 2}}
	MustExtractor(nil).Extract(b, nil)
}

// FuzzExtractMatchesReference holds Extract to the reference on any
// Table I configuration, 1 to 400 samples, 0 to 6 bins at 1 Hz or 0.5 Hz
// spacing and any finite readings within ±sensor.MaxAbsReading. The
// readings are data read as little-endian float64s, cycled to fill the
// three axes; a value outside the accepted range is folded into it.
func FuzzExtractMatchesReference(f *testing.F) {
	walk := func(n int) []byte {
		var data []byte
		r := rng.New(uint64(n))
		for i := 0; i < n; i++ {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(r.NormSigma(synth.Gravity, 3)))
		}
		return data
	}
	f.Add(uint8(0), uint8(3), uint16(200), walk(600))
	f.Add(uint8(15), uint8(6), uint16(1), walk(3))
	f.Add(uint8(7), uint8(6|8), uint16(25), walk(75))
	f.Add(uint8(3), uint8(0), uint16(400), []byte{})
	f.Add(uint8(9), uint8(4), uint16(13), binary.LittleEndian.AppendUint64(nil, math.Float64bits(sensor.MaxAbsReading)))
	f.Fuzz(func(t *testing.T, cfgIdx, binSpec uint8, nRaw uint16, data []byte) {
		skipOffAMD64(t)
		table := sensor.TableI()
		cfg := table[int(cfgIdx)%len(table)]
		n := 1 + int(nRaw)%400
		step := 1.0
		if binSpec&8 != 0 {
			step = 0.5
		}
		bins := []float64{}
		for k := 1; k <= int(binSpec&7)%7; k++ {
			bins = append(bins, float64(k)*step)
		}
		reading := func(i int) float64 {
			if len(data) < 8 {
				return 0
			}
			off := (8 * i) % (len(data) - len(data)%8)
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, sensor.MaxAbsReading)
		}
		b := &sensor.Batch{Config: cfg, X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
		for i := 0; i < n; i++ {
			b.X[i], b.Y[i], b.Z[i] = reading(3*i), reading(3*i+1), reading(3*i+2)
		}
		checkExtractMatches(t, MustExtractor(bins), b)
	})
}

// BenchmarkExtractParetoStates times one 2 s window's extraction at each
// Pareto state, from 200 samples at F100_A128 down to 25 at F12.5_A8.
func BenchmarkExtractParetoStates(b *testing.B) {
	sched := synth.MustSchedule(synth.Segment{Activity: synth.Walk, Duration: 20})
	for _, cfg := range sensor.ParetoStates() {
		m := synth.NewMotion(synth.DefaultModels(), sched, rng.New(1))
		s := sensor.NewSampler(sensor.DefaultNoiseModel(), rng.New(2))
		batch := s.Sample(m, cfg, 5, 7)
		e := MustExtractor(nil)
		dst := make([]float64, e.Size())
		b.Run(cfg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Extract(batch, dst)
			}
		})
	}
}
