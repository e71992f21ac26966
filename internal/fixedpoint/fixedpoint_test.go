package fixedpoint

import (
	"math"
	"testing"

	"adasense/internal/dataset"
	"adasense/internal/nn"
	"adasense/internal/rng"
	"adasense/internal/synth"
)

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
	probs := q.Forward([]float64{0.5, -1, 2, 0})
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
	q.Forward([]float64{1})
}

func BenchmarkQuantizedPredict(b *testing.B) {
	q := Quantize(nn.New(15, 32, 6, rng.New(1)))
	x := make([]float64, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Predict(x)
	}
}
