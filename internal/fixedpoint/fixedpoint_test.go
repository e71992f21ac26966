package fixedpoint

import (
	"math"
	"testing"
	"testing/quick"

	"adasense/internal/dataset"
	"adasense/internal/nn"
	"adasense/internal/rng"
	"adasense/internal/synth"
)

func TestQ15RoundTripWithinLSB(t *testing.T) {
	f := func(raw int16) bool {
		v := float64(raw) / 40000 // within representable range
		q := FromFloat(v)
		return math.Abs(q.Float()-v) <= 1.0/32768+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQ15Saturation(t *testing.T) {
	if FromFloat(5) != math.MaxInt16 {
		t.Fatal("positive saturation failed")
	}
	if FromFloat(-5) != math.MinInt16 {
		t.Fatal("negative saturation failed")
	}
	if Add(One, One) != One {
		t.Fatal("Add should saturate")
	}
	if Sub(FromFloat(-0.9), FromFloat(0.9)) != math.MinInt16 {
		t.Fatal("Sub should saturate")
	}
}

func TestQ15MulBasics(t *testing.T) {
	a, b := FromFloat(0.5), FromFloat(0.5)
	if got := Mul(a, b).Float(); math.Abs(got-0.25) > 1e-4 {
		t.Fatalf("0.5*0.5 = %v", got)
	}
	if got := Mul(FromFloat(-0.5), FromFloat(0.5)).Float(); math.Abs(got+0.25) > 1e-4 {
		t.Fatalf("-0.5*0.5 = %v", got)
	}
	if Mul(0, One) != 0 {
		t.Fatal("0*x != 0")
	}
}

func TestQ15MulCommutesAndBounded(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := Q15(a), Q15(b)
		p := Mul(x, y)
		if p != Mul(y, x) {
			return false
		}
		exact := x.Float() * y.Float()
		return math.Abs(p.Float()-exact) <= 2.0/32768
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeTensorZeros(t *testing.T) {
	tr := quantizeTensor([]float64{0, 0, 0})
	if tr.Scale != 1 {
		t.Fatalf("zero tensor scale = %v", tr.Scale)
	}
	for _, v := range tr.Data {
		if v != 0 {
			t.Fatal("zero tensor has nonzero values")
		}
	}
}

func TestQuantizeTensorReconstruction(t *testing.T) {
	vals := []float64{0.5, -1.25, 3.0, 0.001}
	tr := quantizeTensor(vals)
	for i, v := range vals {
		rec := float64(tr.Data[i]) * tr.Scale
		if math.Abs(rec-v) > tr.Scale {
			t.Fatalf("value %d: %v reconstructed as %v", i, v, rec)
		}
	}
}

func TestQuantizedNetworkMatchesFloat(t *testing.T) {
	r := rng.New(31)
	corpus, err := dataset.Generate(dataset.GenSpec{Windows: 2400}, r.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	train, test := corpus.Split(0.3, r.Split(2))
	net := nn.New(corpus.FeatureSize, 32, synth.NumActivities, r.Split(3))
	X, Y := train.XY()
	if _, err := nn.Train(net, X, Y, nn.TrainConfig{Epochs: 40}, r.Split(4)); err != nil {
		t.Fatal(err)
	}
	qnet := Quantize(net)

	tx, ty := test.XY()
	floatAcc := nn.Accuracy(net, tx, ty)
	agree, correct := 0, 0
	for i, x := range tx {
		fc, _ := net.Predict(x)
		qc, conf := qnet.Predict(x)
		if conf < 0 || conf > 1 {
			t.Fatalf("bad confidence %v", conf)
		}
		if fc == qc {
			agree++
		}
		if qc == ty[i] {
			correct++
		}
	}
	agreeFrac := float64(agree) / float64(len(tx))
	qAcc := float64(correct) / float64(len(tx))
	if agreeFrac < 0.97 {
		t.Fatalf("quantized net agrees with float on only %v", agreeFrac)
	}
	if qAcc < floatAcc-0.02 {
		t.Fatalf("quantization cost too high: float %v, Q15 %v", floatAcc, qAcc)
	}
}

func TestQuantizedNetworkBytesHalved(t *testing.T) {
	net := nn.New(15, 32, 6, rng.New(7))
	q := Quantize(net)
	floatBytes := net.WeightBytes(4)
	if q.WeightBytes() >= floatBytes {
		t.Fatalf("Q15 bytes %d not below float32 bytes %d", q.WeightBytes(), floatBytes)
	}
	// Weights dominate, so the ratio should approach 2×.
	ratio := float64(floatBytes) / float64(q.WeightBytes())
	if ratio < 1.6 {
		t.Fatalf("compression ratio = %v, want ≈2", ratio)
	}
}

func TestQuantizedForwardIsDistribution(t *testing.T) {
	net := nn.New(4, 8, 3, rng.New(9))
	q := Quantize(net)
	probs := q.Forward([]float64{0.5, -1, 2, 0}, nil)
	sum := 0.0
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("prob %v out of range", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %v", sum)
	}
}

func TestQuantizedForwardPanicsOnSizeMismatch(t *testing.T) {
	q := Quantize(nn.New(4, 8, 3, rng.New(9)))
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	q.Forward([]float64{1}, nil)
}

// TestWorkspaceForwardMatchesAllocating pins ForwardWS to the
// allocating path bit for bit: same scratch-free math, different
// buffers.
func TestWorkspaceForwardMatchesAllocating(t *testing.T) {
	net := nn.New(6, 12, 4, rng.New(11))
	q := Quantize(net)
	ws := NewWorkspace(q)
	r := rng.New(12)
	x := make([]float64, q.In)
	for trial := 0; trial < 50; trial++ {
		for i := range x {
			x[i] = r.Norm()
		}
		want := q.Forward(x, nil)
		got := q.ForwardWS(ws, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d prob %d: ws %v != alloc %v", trial, i, got[i], want[i])
			}
		}
		wc, wp := q.Predict(x)
		gc, gp := q.PredictWS(ws, x)
		if wc != gc || wp != gp {
			t.Fatalf("trial %d: PredictWS (%d,%v) != Predict (%d,%v)", trial, gc, gp, wc, wp)
		}
	}
}

func TestWorkspaceRejectsWrongNetwork(t *testing.T) {
	small := Quantize(nn.New(4, 8, 3, rng.New(9)))
	big := Quantize(nn.New(6, 12, 4, rng.New(9)))
	ws := NewWorkspace(small)
	defer func() {
		if recover() == nil {
			t.Fatal("mis-sized workspace did not panic")
		}
	}()
	big.ForwardWS(ws, make([]float64, 6))
}

func BenchmarkQuantizedPredict(b *testing.B) {
	q := Quantize(nn.New(15, 32, 6, rng.New(1)))
	x := make([]float64, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Predict(x)
	}
}

// TestQuantizedPredictAllocs pins the steady-state inference path, the
// workspace form of Predict, at zero allocations.
func TestQuantizedPredictAllocs(t *testing.T) {
	q := Quantize(nn.New(15, 32, 6, rng.New(1)))
	ws := NewWorkspace(q)
	x := make([]float64, 15)
	cases := []struct {
		name string
		fn   func()
	}{
		{"PredictWS", func() { q.PredictWS(ws, x) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
				t.Fatalf("%v allocs per prediction, want 0", got)
			}
		})
	}
}

// BenchmarkQuantizedPredictWS is the workspace form — the steady-state
// inference path. Pinned at 0 allocs/op by TestQuantizedPredictAllocs.
func BenchmarkQuantizedPredictWS(b *testing.B) {
	q := Quantize(nn.New(15, 32, 6, rng.New(1)))
	ws := NewWorkspace(q)
	x := make([]float64, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.PredictWS(ws, x)
	}
}
