package sensor

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"adasense/internal/rng"
	"adasense/internal/synth"
)

// goldenSweepHash is the FNV-64a hash of every quantized reading of
// goldenSweep. It pins the sampler's output bit for bit: a change to the
// signal kernels or the noise path that moves any reading by one ADC step
// changes it.
const goldenSweepHash = 0x17924ebca11e21db

// goldenSweep samples all of Table I in 2-s batches over a 222-s schedule
// that visits every activity and whose segment boundaries fall inside
// batches and averaging windows, and hashes the readings in order.
func goldenSweep() uint64 {
	sched := synth.MustSchedule(
		synth.Segment{Activity: synth.Sit, Duration: 31.3},
		synth.Segment{Activity: synth.Walk, Duration: 27.9},
		synth.Segment{Activity: synth.Upstairs, Duration: 24.6},
		synth.Segment{Activity: synth.Stand, Duration: 33.1},
		synth.Segment{Activity: synth.Downstairs, Duration: 22.7},
		synth.Segment{Activity: synth.LieDown, Duration: 29.2},
		synth.Segment{Activity: synth.Walk, Duration: 36.5},
		synth.Segment{Activity: synth.Upstairs, Duration: 17.8},
	)
	m := synth.NewMotion(synth.DefaultModels(), sched, rng.New(41))
	s := NewSampler(DefaultNoiseModel(), rng.New(42))
	h := fnv.New64a()
	var buf [8]byte
	for _, cfg := range TableI() {
		for t0 := 0.0; t0 < 222; t0 += 2 {
			b := s.Sample(m, cfg, t0, t0+2)
			for i := range b.X {
				for _, v := range [3]float64{b.X[i], b.Y[i], b.Z[i]} {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	return h.Sum64()
}

func TestSamplerGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse x*y+z into one rounding, which
		// can move a reading across an ADC step.
		t.Skipf("golden hash is pinned on amd64, not %s", runtime.GOARCH)
	}
	if got := goldenSweep(); got != goldenSweepHash {
		t.Fatalf("sampler output hash = %#x, want %#x", got, uint64(goldenSweepHash))
	}
}
