package adasense

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"adasense/internal/nn"
	"adasense/internal/rng"
)

// fuzzContainerSeed builds a small valid ADSC container for the corpus:
// an untrained network over the default feature layout — structurally
// identical to what adasense-train ships, just not worth serving.
func fuzzContainerSeed(f *testing.F) []byte {
	f.Helper()
	sys := &System{Network: nn.New(15, 4, NumActivities, rng.New(1))}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadSystem throws arbitrary bytes at the model-container loader —
// the exact path a hostile POST /v1/rollout body reaches. Invariants:
// no panic, no implausible allocation (the header's dimension and bin
// counts are bounded before anything is sized from them), and anything
// the loader accepts must survive a Save/Load round trip unchanged in
// shape — an accepted container that cannot re-serialize would strand
// the replica catch-up path, which ships models as these bytes.
func FuzzLoadSystem(f *testing.F) {
	valid := fuzzContainerSeed(f)
	// The envelope is "ADSC" + version/bin-count (8 bytes) + the bin
	// frequencies; the embedded "ADNN" network stream starts right after.
	netOff := bytes.Index(valid, []byte(nn.Magic))
	if netOff < 0 {
		f.Fatal("container seed carries no embedded network magic")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])        // truncated mid-network
	f.Add(valid[:11])                  // truncated mid-header
	f.Add(valid[netOff:])              // bare network stream (rejected)
	f.Add([]byte("ADSC"))              // magic only
	f.Add([]byte("ADNN"))              // bare network magic only
	f.Add([]byte("MZ\x90\x00"))        // wrong magic entirely
	f.Add(bytes.Repeat([]byte{0}, 64)) // zeros
	corrupt := append([]byte(nil), valid...)
	corrupt[6] ^= 0xff // absurd bin count
	f.Add(corrupt)
	huge := append([]byte(nil), valid...)
	huge[netOff+len(nn.Magic)+1] ^= 0xff // absurd network dimension
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := LoadSystem(bytes.NewReader(data))
		if err != nil {
			return
		}
		if sys.Network == nil {
			t.Fatal("LoadSystem accepted a container with no network")
		}
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			t.Fatalf("accepted container cannot re-serialize: %v", err)
		}
		again, err := LoadSystem(&buf)
		if err != nil {
			t.Fatalf("re-serialized container rejected: %v", err)
		}
		if again.Network.In != sys.Network.In || again.Network.Out != sys.Network.Out {
			t.Fatalf("round trip changed network shape: %d/%d vs %d/%d",
				sys.Network.In, sys.Network.Out, again.Network.In, again.Network.Out)
		}
	})
}

// fuzzSessionStateSeed builds a small valid ADSS container for the
// corpus: a mid-descent SPOT snapshot with a partial window.
func fuzzSessionStateSeed(f *testing.F) []byte {
	f.Helper()
	st := &SessionState{Generation: 3, WindowSec: 2, HopSec: 1}
	st.Engine.Config = ParetoStates()[1]
	st.Engine.Pending = 7
	for i := 0; i < 25; i++ {
		v := float64(i) * 0.125
		st.Engine.X = append(st.Engine.X, v)
		st.Engine.Y = append(st.Engine.Y, -v)
		st.Engine.Z = append(st.Engine.Z, 1-v)
	}
	st.Engine.CtlKind = "spot/1"
	st.Engine.CtlState = []byte{1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 1, 0, 0, 0}
	st.Energy = EnergyEstimate{ElapsedSec: 31.5, ChargeUC: 2048}
	buf, err := st.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	return buf
}

// fuzzRestoreService serves an untrained network with the default
// controller: FuzzSessionStateRoundTrip restores each accepted container
// into one of its sessions and pushes a valid batch after it. push
// returns one 2 s batch at cfg.
func fuzzRestoreService(f *testing.F) (svc *Service, push func(cfg Config) *Batch) {
	f.Helper()
	svc, err := NewService(&System{Network: nn.New(15, 4, NumActivities, rng.New(1))})
	if err != nil {
		f.Fatal(err)
	}
	sched, err := NewSchedule([]Segment{{Activity: Walk, Duration: 10}})
	if err != nil {
		f.Fatal(err)
	}
	m := NewMotion(sched, 5)
	return svc, func(cfg Config) *Batch { return NewSampler(DefaultNoiseModel(), 6).Sample(m, cfg, 0, 2) }
}

// fuzzLiveStateSeeds snapshots a session of svc after 1.3 s of readings
// (a window remainder and a pending count) and encodes it twice: as
// taken, and with a NaN in the window remainder under a valid CRC.
func fuzzLiveStateSeeds(f *testing.F, svc *Service, push func(Config) *Batch) (live, nan []byte) {
	f.Helper()
	sess, err := svc.OpenSession("seed")
	if err != nil {
		f.Fatal(err)
	}
	defer sess.Close()
	b := push(sess.Config())
	n := b.Len() * 13 / 20
	if _, err := sess.Push(&Batch{Config: b.Config, X: b.X[:n], Y: b.Y[:n], Z: b.Z[:n]}); err != nil {
		f.Fatal(err)
	}
	st, err := sess.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	if live, err = st.AppendBinary(nil); err != nil {
		f.Fatal(err)
	}
	st.Engine.X[0] = math.NaN()
	if nan, err = st.AppendBinary(nil); err != nil {
		f.Fatal(err)
	}
	return live, nan
}

// FuzzSessionStateRoundTrip throws arbitrary bytes at the ADSS decoder —
// the exact path a hostile PUT /v1/session-state body reaches. The
// invariants mirror FuzzLoadSystem's: no panic, no implausible
// allocation (every interior length is bounds-checked before anything is
// sized from it), and any container the decoder accepts must re-encode
// byte-identically — the canonical-encoding property the differential
// handoff tests rely on. When Session.Restore also accepts it, one valid
// push after the restore must emit only finite confidences: a restored
// window remainder meets the same check as a pushed batch.
func FuzzSessionStateRoundTrip(f *testing.F) {
	svc, push := fuzzRestoreService(f)
	live, nan := fuzzLiveStateSeeds(f, svc, push)
	f.Add(live)
	f.Add(nan) // NaN in the window remainder, CRC valid
	valid := fuzzSessionStateSeed(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])        // truncated mid-payload
	f.Add(valid[:10])                  // truncated mid-header
	f.Add([]byte("ADSS"))              // magic only
	f.Add([]byte("ADSC"))              // the sibling container's magic
	f.Add(bytes.Repeat([]byte{0}, 64)) // zeros
	version := append([]byte(nil), valid...)
	version[4] ^= 0xff // absurd version
	f.Add(version)
	// An absurd window sample count with a fixed-up CRC, so the decoder
	// reaches the bounds check rather than stopping at the checksum.
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[52:], 1<<31)
	plen := int(binary.LittleEndian.Uint32(huge[8:12]))
	binary.LittleEndian.PutUint32(huge[12+plen:], crc32.ChecksumIEEE(huge[12:12+plen]))
	f.Add(huge)
	crc := append([]byte(nil), valid...)
	crc[len(crc)-1] ^= 0xff // checksum mismatch
	f.Add(crc)
	f.Add(append(append([]byte(nil), valid...), 0)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSessionState(data)
		if err != nil {
			return
		}
		buf, err := st.AppendBinary(make([]byte, 0, st.EncodedLen()))
		if err != nil {
			t.Fatalf("accepted container cannot re-encode: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("round trip not byte-identical:\nin:  %x\nout: %x", data, buf)
		}

		sess, err := svc.OpenSession("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if err := sess.Restore(st); err != nil {
			return
		}
		events, err := sess.Push(push(sess.Config()))
		if err != nil {
			t.Fatalf("valid push after an accepted restore: %v", err)
		}
		if len(events) == 0 {
			t.Fatal("a 2 s push after a restore completed no tick")
		}
		for _, ev := range events {
			if c := ev.Classification.Confidence; math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("restored session emitted confidence %v", c)
			}
		}
	})
}
