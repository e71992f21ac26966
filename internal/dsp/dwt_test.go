package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"adasense/internal/rng"
)

func TestHaarStepKnown(t *testing.T) {
	x := []float64{1, 1, 2, 2}
	approx := make([]float64, 2)
	detail := make([]float64, 2)
	HaarStep(x, approx, detail)
	s2 := math.Sqrt2
	if math.Abs(approx[0]-s2) > 1e-12 || math.Abs(approx[1]-2*s2) > 1e-12 {
		t.Fatalf("approx = %v", approx)
	}
	if detail[0] != 0 || detail[1] != 0 {
		t.Fatalf("detail of pairwise-constant signal = %v", detail)
	}
}

func TestHaarStepPanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd length did not panic")
		}
	}()
	HaarStep(make([]float64, 3), make([]float64, 1), make([]float64, 1))
}

func TestHaarDWTEnergyConservation(t *testing.T) {
	// The Haar transform is orthonormal: total energy of all bands equals
	// the signal energy (for power-of-two lengths; padding adds zeros).
	r := rng.New(7)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		x := make([]float64, 128)
		var want float64
		for i := range x {
			x[i] = rr.Norm()
			want += x[i] * x[i]
		}
		bands := new(DWT).Transform(x, 7)
		var got float64
		for _, band := range bands {
			for _, c := range band {
				got += c * c
			}
		}
		return math.Abs(got-want) < 1e-9*want
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHaarDWTLevelClamping(t *testing.T) {
	bands := new(DWT).Transform(make([]float64, 8), 99)
	// 8 samples allow 3 levels: 3 details + final approx = 4 bands.
	if len(bands) != 4 {
		t.Fatalf("bands = %d, want 4", len(bands))
	}
	if len(bands[3]) != 1 {
		t.Fatalf("final approx length = %d, want 1", len(bands[3]))
	}
}

func TestDWTWorkspaceMatchesHaarDWT(t *testing.T) {
	// One workspace reused across mixed lengths and depths must agree
	// with a fresh workspace call for call.
	var w DWT
	r := rng.New(11)
	for _, n := range []int{256, 8, 200, 64, 31, 2} {
		for _, levels := range []int{1, 5, 99} {
			x := make([]float64, n)
			for i := range x {
				x[i] = r.Norm()
			}
			want := new(DWT).Transform(x, levels)
			got := w.Transform(x, levels)
			if len(got) != len(want) {
				t.Fatalf("n=%d levels=%d: %d bands, want %d", n, levels, len(got), len(want))
			}
			for bi := range want {
				if len(got[bi]) != len(want[bi]) {
					t.Fatalf("n=%d levels=%d band %d: len %d, want %d", n, levels, bi, len(got[bi]), len(want[bi]))
				}
				for ci := range want[bi] {
					if math.Abs(got[bi][ci]-want[bi][ci]) > 1e-12 {
						t.Fatalf("n=%d levels=%d band %d coeff %d: %g, want %g",
							n, levels, bi, ci, got[bi][ci], want[bi][ci])
					}
				}
			}
		}
	}
}

func BenchmarkHaarDWT256(b *testing.B) {
	x := make([]float64, 256)
	for i := range x {
		x[i] = math.Sin(float64(i) / 3)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		new(DWT).Transform(x, 5)
	}
}

func BenchmarkHaarDWT256Reuse(b *testing.B) {
	x := make([]float64, 256)
	for i := range x {
		x[i] = math.Sin(float64(i) / 3)
	}
	var w DWT
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Transform(x, 5)
	}
}
