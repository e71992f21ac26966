package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"adasense/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceBasic(t *testing.T) {
	if got := Variance([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("Variance of constant = %v, want 0", got)
	}
	// Population variance of {1,2,3,4} = 1.25.
	if got := Variance([]float64{1, 2, 3, 4}); !almostEqual(got, 1.25, 1e-12) {
		t.Fatalf("Variance = %v, want 1.25", got)
	}
}

func TestStdDevShiftInvariance(t *testing.T) {
	r := rng.New(1)
	f := func(shiftRaw int8) bool {
		shift := float64(shiftRaw)
		x := make([]float64, 64)
		y := make([]float64, 64)
		for i := range x {
			x[i] = r.Norm()
			y[i] = x[i] + shift
		}
		return almostEqual(StdDev(x), StdDev(y), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAbsDiff(t *testing.T) {
	if got := MeanAbsDiff([]float64{0, 1, 3, 0}); !almostEqual(got, (1+2+3)/3.0, 1e-12) {
		t.Fatalf("MeanAbsDiff = %v", got)
	}
	if got := MeanAbsDiff([]float64{5}); got != 0 {
		t.Fatalf("MeanAbsDiff single = %v, want 0", got)
	}
}

func TestMagnitude3(t *testing.T) {
	m := Magnitude3([]float64{3}, []float64{4}, []float64{0})
	if !almostEqual(m[0], 5, 1e-12) {
		t.Fatalf("Magnitude3 = %v, want 5", m[0])
	}
}

// --- Goertzel ---

func TestGoertzelPureTone(t *testing.T) {
	const fs = 100.0
	const f = 2.0
	n := 200 // 2 seconds: integer number of cycles
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f * float64(i) / fs)
	}
	// Unit sinusoid at the target bin -> normalized magnitude ~0.5.
	if got := Goertzel(x, f, fs); !almostEqual(got, 0.5, 1e-6) {
		t.Fatalf("Goertzel at tone = %v, want 0.5", got)
	}
	// Far-off bin should be near zero.
	if got := Goertzel(x, 11, fs); got > 1e-6 {
		t.Fatalf("Goertzel off tone = %v, want ~0", got)
	}
}

func TestGoertzelRateInvariance(t *testing.T) {
	// The same physical tone sampled at different rates over the same
	// duration must produce (approximately) the same feature value. This
	// is the property AdaSense's unified feature set relies on.
	const f = 1.5
	const dur = 2.0
	mag := func(fs float64) float64 {
		n := int(dur * fs)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(2 * math.Pi * f * float64(i) / fs)
		}
		return Goertzel(x, f, fs)
	}
	m100 := mag(100)
	m25 := mag(25)
	m12 := mag(12.5)
	if !almostEqual(m100, m25, 0.02) || !almostEqual(m100, m12, 0.05) {
		t.Fatalf("rate invariance violated: %v %v %v", m100, m25, m12)
	}
}

// naiveDFT computes the full DFT of the real signal x by direct summation.
// It is O(N²) and is the correctness oracle for Goertzel.
func naiveDFT(x []float64) (re, im []float64) {
	n := len(x)
	re = make([]float64, n)
	im = make([]float64, n)
	for k := 0; k < n; k++ {
		var sr, si float64
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sr += x[t] * math.Cos(ang)
			si += x[t] * math.Sin(ang)
		}
		re[k], im[k] = sr, si
	}
	return re, im
}

func TestGoertzelMatchesNaiveDFT(t *testing.T) {
	r := rng.New(2)
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Norm()
	}
	re, im := naiveDFT(x)
	for k := 1; k < 8; k++ {
		want := math.Hypot(re[k], im[k]) / float64(n)
		// Bin k of an n-point DFT at fs corresponds to freq k*fs/n.
		got := Goertzel(x, float64(k)*100/float64(n), 100)
		if !almostEqual(got, want, 1e-9) {
			t.Fatalf("bin %d: Goertzel=%v naive=%v", k, got, want)
		}
	}
}

func TestGoertzelEmptyAndBadFs(t *testing.T) {
	if Goertzel(nil, 1, 100) != 0 {
		t.Fatal("Goertzel(nil) != 0")
	}
	if Goertzel([]float64{1, 2}, 1, 0) != 0 {
		t.Fatal("Goertzel with fs=0 != 0")
	}
}

func TestGoertzelBinsReuse(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	buf := make([]float64, 3)
	out := GoertzelBins(x, []float64{1, 2, 3}, 100, buf)
	if &out[0] != &buf[0] {
		t.Fatal("GoertzelBins did not reuse provided buffer")
	}
	out2 := GoertzelBins(x, []float64{1, 2, 3}, 100, nil)
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("GoertzelBins buffer reuse changed results")
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 100: 128, 128: 128}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// --- DWT padding / detrend ---

func TestDetrend(t *testing.T) {
	y := []float64{5, 7, 9}
	m := Detrend(y)
	if m != 7 {
		t.Fatalf("Detrend mean = %v", m)
	}
	if !almostEqual(Mean(y), 0, 1e-12) {
		t.Fatalf("detrended mean = %v", Mean(y))
	}
}

// TestDSPAllocs pins the per-window kernels at zero allocations: one
// Goertzel bin over a 2 s, 100 Hz window, and a Haar decomposition into
// a reused workspace (AllocsPerRun's warm-up call sizes it).
func TestDSPAllocs(t *testing.T) {
	x := make([]float64, 256)
	for i := range x {
		x[i] = math.Sin(float64(i) / 3)
	}
	var w DWT
	cases := []struct {
		name string
		fn   func()
	}{
		{"Goertzel200", func() { Goertzel(x[:200], 2, 100) }},
		{"HaarDWT256Reuse", func() { w.Transform(x, 5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
				t.Fatalf("%v allocs per call, want 0", got)
			}
		})
	}
}

func BenchmarkGoertzel200(b *testing.B) {
	x := make([]float64, 200)
	for i := range x {
		x[i] = math.Sin(float64(i) / 7)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Goertzel(x, 2, 100)
	}
}
