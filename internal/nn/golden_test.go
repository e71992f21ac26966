package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"adasense/internal/rng"
)

// Golden FNV-64a hashes of the parameters, standardization and epoch
// losses after goldenTrain, without and with label smoothing. They pin
// Train's arithmetic bit for bit.
const (
	goldenTrainHash         = 0x44ccf31b96e9f44a
	goldenTrainSmoothedHash = 0x617f34c131fac959
)

// goldenTrain trains a 15-33-6 network (an odd hidden width, so any
// unrolled loop also runs its tail) for 6 epochs on a seeded
// scaledCorpus, and hashes the result.
func goldenTrain(t *testing.T, smoothing float64) uint64 {
	t.Helper()
	r := rng.New(51)
	X, Y := scaledCorpus(r, 500, 15, 6)
	net := New(15, 33, 6, r.Split(1))
	res, err := Train(net, X, Y, TrainConfig{Epochs: 6, BatchSize: 32, LabelSmoothing: smoothing}, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range [][]float64{net.W1, net.B1, net.W2, net.B2, net.MeanIn, net.StdIn, res.EpochLoss} {
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// scaledCorpus draws n inputs of size in, labelled round-robin over
// classes, whose features have distinct scales and offsets and a
// class-dependent shift.
func scaledCorpus(r *rng.Source, n, in, classes int) (X [][]float64, Y []int) {
	for i := 0; i < n; i++ {
		cls := i % classes
		x := make([]float64, in)
		for j := range x {
			x[j] = float64(j+1)*(r.Norm()+0.4*float64((cls+j)%classes)) + float64(3*j)
		}
		X, Y = append(X, x), append(Y, cls)
	}
	return X, Y
}

// skipOffAMD64 skips a test that pins floating-point results bit for bit
// to anything but amd64: other architectures may fuse x*y+z into one
// rounding.
func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-exact results are pinned on amd64, not %s", runtime.GOARCH)
	}
}

func TestTrainGoldenHash(t *testing.T) {
	skipOffAMD64(t)
	for _, tc := range []struct {
		smoothing float64
		want      uint64
	}{{0, goldenTrainHash}, {0.1, goldenTrainSmoothedHash}} {
		if got := goldenTrain(t, tc.smoothing); got != tc.want {
			t.Errorf("label smoothing %v: trained network hash = %#x, want %#x", tc.smoothing, got, tc.want)
		}
	}
}
