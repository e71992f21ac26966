package nn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"adasense/internal/rng"
)

// twoBlobs builds a linearly separable 2-class problem.
func twoBlobs(r *rng.Source, n int) (X [][]float64, Y []int) {
	for i := 0; i < n; i++ {
		cls := i % 2
		cx := -2.0
		if cls == 1 {
			cx = 2.0
		}
		X = append(X, []float64{cx + r.Norm()*0.5, r.Norm() * 0.5})
		Y = append(Y, cls)
	}
	return X, Y
}

// spiralIsh builds a harder 3-class radial problem.
func rings(r *rng.Source, n int) (X [][]float64, Y []int) {
	for i := 0; i < n; i++ {
		cls := i % 3
		radius := float64(cls)*1.5 + 1
		theta := r.Uniform(0, 2*math.Pi)
		X = append(X, []float64{
			radius*math.Cos(theta) + r.Norm()*0.15,
			radius*math.Sin(theta) + r.Norm()*0.15,
		})
		Y = append(Y, cls)
	}
	return X, Y
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,1,1) did not panic")
		}
	}()
	New(0, 1, 1, rng.New(1))
}

func TestForwardIsDistribution(t *testing.T) {
	net := New(4, 8, 3, rng.New(2))
	f := func(a, b, c, d float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 100)
		}
		p := net.Forward([]float64{clamp(a), clamp(b), clamp(c), clamp(d)}, nil)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForwardPanicsOnSizeMismatch(t *testing.T) {
	net := New(4, 8, 3, rng.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	net.Forward([]float64{1, 2}, nil)
}

func TestTrainSeparableProblem(t *testing.T) {
	r := rng.New(3)
	X, Y := twoBlobs(r, 400)
	net := New(2, 8, 2, r.Split(1))
	res, err := Train(net, X, Y, TrainConfig{Epochs: 30}, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, X, Y); acc < 0.99 {
		t.Fatalf("separable training accuracy = %v", acc)
	}
	if last := res.EpochLoss[len(res.EpochLoss)-1]; last > 0.1 {
		t.Fatalf("final loss = %v", last)
	}
}

func TestTrainNonlinearProblem(t *testing.T) {
	r := rng.New(5)
	X, Y := rings(r, 900)
	Xte, Yte := rings(r.Split(9), 300)
	net := New(2, 24, 3, r.Split(1))
	if _, err := Train(net, X, Y, TrainConfig{Epochs: 80, LR: 5e-3}, r.Split(2)); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, Xte, Yte); acc < 0.95 {
		t.Fatalf("rings test accuracy = %v, want >= 0.95 (needs the hidden layer)", acc)
	}
}

func TestTrainLossDecreases(t *testing.T) {
	r := rng.New(7)
	X, Y := rings(r, 600)
	net := New(2, 16, 3, r.Split(1))
	res, err := Train(net, X, Y, TrainConfig{Epochs: 20}, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestTrainValidation(t *testing.T) {
	r := rng.New(8)
	net := New(2, 4, 2, r)
	if _, err := Train(net, nil, nil, TrainConfig{}, r); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if _, err := Train(net, [][]float64{{1}}, []int{0}, TrainConfig{}, r); err == nil {
		t.Fatal("wrong input size accepted")
	}
	if _, err := Train(net, [][]float64{{1, 2}}, []int{5}, TrainConfig{}, r); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := Train(net, [][]float64{{1, 2}, {3, 4}}, []int{0}, TrainConfig{}, r); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestTrainingDeterministic(t *testing.T) {
	build := func() *Network {
		r := rng.New(11)
		X, Y := twoBlobs(r, 200)
		net := New(2, 8, 2, r.Split(1))
		if _, err := Train(net, X, Y, TrainConfig{Epochs: 5}, r.Split(2)); err != nil {
			t.Fatal(err)
		}
		return net
	}
	a, b := build(), build()
	for i := range a.W1 {
		if a.W1[i] != b.W1[i] {
			t.Fatal("training is not deterministic")
		}
	}
}

func TestStandardizationStored(t *testing.T) {
	r := rng.New(13)
	X := [][]float64{{10, 0}, {12, 0}, {14, 0}}
	Y := []int{0, 1, 0}
	net := New(2, 4, 2, r)
	if _, err := Train(net, X, Y, TrainConfig{Epochs: 1}, r); err != nil {
		t.Fatal(err)
	}
	if math.Abs(net.MeanIn[0]-12) > 1e-9 {
		t.Fatalf("MeanIn[0] = %v, want 12", net.MeanIn[0])
	}
	if net.StdIn[1] != 1 {
		t.Fatalf("constant feature std floored to %v, want 1", net.StdIn[1])
	}
}

func TestPredictConfidence(t *testing.T) {
	r := rng.New(17)
	X, Y := twoBlobs(r, 400)
	net := New(2, 8, 2, r.Split(1))
	if _, err := Train(net, X, Y, TrainConfig{Epochs: 30}, r.Split(2)); err != nil {
		t.Fatal(err)
	}
	// Deep inside class 1 territory: high confidence.
	cls, conf := net.Predict([]float64{3, 0})
	if cls != 1 || conf < 0.9 {
		t.Fatalf("Predict(3,0) = %d @ %v", cls, conf)
	}
	// On the decision boundary: confidence should drop.
	_, confMid := net.Predict([]float64{0, 0})
	if confMid >= conf {
		t.Fatalf("boundary confidence %v not below interior confidence %v", confMid, conf)
	}
}

func TestCloneIndependent(t *testing.T) {
	net := New(3, 4, 2, rng.New(19))
	c := net.Clone()
	c.W1[0] += 100
	if net.W1[0] == c.W1[0] {
		t.Fatal("Clone shares weight storage")
	}
}

func TestNumParamsAndWeightBytes(t *testing.T) {
	net := New(15, 32, 6, rng.New(23))
	wantParams := 15*32 + 32 + 32*6 + 6
	if got := net.NumParams(); got != wantParams {
		t.Fatalf("NumParams = %d, want %d", got, wantParams)
	}
	if got := net.WeightBytes(4); got != (wantParams+30)*4 {
		t.Fatalf("WeightBytes(4) = %d", got)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	r := rng.New(29)
	X, Y := twoBlobs(r, 200)
	net := New(2, 8, 2, r.Split(1))
	if _, err := Train(net, X, Y, TrainConfig{Epochs: 10}, r.Split(2)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.In != net.In || got.Hidden != net.Hidden || got.Out != net.Out {
		t.Fatal("dimensions lost in round trip")
	}
	// float32 round trip loses precision but predictions must agree.
	for i := 0; i < 50; i++ {
		x := []float64{r.Uniform(-4, 4), r.Uniform(-2, 2)}
		a, _ := net.Predict(x)
		b, _ := got.Predict(x)
		if a != b {
			t.Fatalf("prediction changed after round trip at input %v", x)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("ADNN"), // truncated header
		append([]byte("ADNN"), make([]byte, 16)...), // zero dims
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: Read accepted garbage", i)
		}
	}
}

func TestAccuracyEmpty(t *testing.T) {
	net := New(2, 4, 2, rng.New(31))
	if Accuracy(net, nil, nil) != 0 {
		t.Fatal("Accuracy(empty) != 0")
	}
}

// TestAccuracyAllocs pins Accuracy's allocations to its two buffers:
// scoring 30 times as many inputs allocates no more.
func TestAccuracyAllocs(t *testing.T) {
	r := rng.New(37)
	X, Y := twoBlobs(r, 600)
	net := New(2, 8, 2, r.Split(1))
	small := testing.AllocsPerRun(20, func() { Accuracy(net, X[:20], Y[:20]) })
	large := testing.AllocsPerRun(20, func() { Accuracy(net, X, Y) })
	if small > 2 || large != small {
		t.Fatalf("Accuracy allocates %v times over 20 inputs and %v over 600; want at most 2 for both", small, large)
	}
}

// TestAccuracyMatchesPredict scores a corpus with Accuracy and with
// Predict one input at a time, including an input whose probabilities
// tie, where the first class wins.
func TestAccuracyMatchesPredict(t *testing.T) {
	r := rng.New(41)
	X, Y := rings(r, 300)
	net := New(2, 8, 3, r.Split(1))
	if _, err := Train(net, X, Y, TrainConfig{Epochs: 3}, r.Split(2)); err != nil {
		t.Fatal(err)
	}
	tie := New(2, 4, 3, r.Split(3))
	clear(tie.W2)
	clear(tie.B2)
	for _, c := range []struct {
		net *Network
		X   [][]float64
		Y   []int
	}{{net, X, Y}, {tie, X[:3], []int{0, 1, 2}}} {
		correct := 0
		for i, x := range c.X {
			if cls, _ := c.net.Predict(x); cls == c.Y[i] {
				correct++
			}
		}
		if got, want := Accuracy(c.net, c.X, c.Y), float64(correct)/float64(len(c.X)); got != want {
			t.Fatalf("Accuracy = %v, Predict scores %v", got, want)
		}
	}
	if cls, _ := tie.Predict(X[0]); cls != 0 {
		t.Fatalf("Predict on a three-way tie = class %d, want 0", cls)
	}
}

func BenchmarkPredict(b *testing.B) {
	net := New(15, 32, 6, rng.New(1))
	x := make([]float64, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Predict(x)
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	r := rng.New(1)
	X, Y := rings(r, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := New(2, 16, 3, rng.New(2))
		_, _ = Train(net, X, Y, TrainConfig{Epochs: 1}, rng.New(3))
	}
}

// BenchmarkTrainLab trains the lab's classifier shape, 15 features, 32
// hidden units and 6 classes, on 1200 windows for 5 epochs, so the loops
// over the input and hidden layers carry the cost.
func BenchmarkTrainLab(b *testing.B) {
	X, Y := scaledCorpus(rng.New(1), 1200, 15, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := New(15, 32, 6, rng.New(2))
		_, _ = Train(net, X, Y, TrainConfig{Epochs: 5}, rng.New(3))
	}
}
