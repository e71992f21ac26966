package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"adasense"
	"adasense/internal/nn"
	"adasense/internal/rng"
)

// FuzzFrameDecode drives hostile bytes through both frame decoders and
// every payload codec. The contract under fuzzing:
//
//   - reject or round-trip, never panic;
//   - a frame DecodeFrame accepts re-encodes to exactly the bytes it
//     consumed (the envelope codec is bijective on valid frames);
//   - the streaming Reader agrees with the slice decoder on the first
//     frame;
//   - a hostile length prefix never drives the Reader's buffer past
//     MaxFramePayload + TrailerLen (the no-over-allocation bound);
//   - a batch payload that decodes goes through a session of a Service
//     of an untrained network, and every push either fails with a
//     *BatchError or emits only finite confidences.
//
// The committed seed corpus in testdata/fuzz/FuzzFrameDecode covers the
// interesting boundaries: a valid round-trip frame, a truncated header,
// a corrupted CRC, an oversized length prefix, and an unknown type.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, FrameHello, AppendHello(nil, Hello{Device: "dev", Token: "tok"})))
	batch := BatchMsg{Seq: 1, Config: testCfg, StartAt: 2, X: []float64{1, 2}, Y: []float64{3, 4}, Z: []float64{5, 6}}
	f.Add(AppendFrame(nil, FrameBatch, AppendBatch(nil, &batch)))
	f.Add([]byte("ADSP")) // truncated header
	bad := AppendFrame(nil, FramePing, []byte("ping"))
	bad[len(bad)-1] ^= 0xFF // corrupted CRC
	f.Add(bad)
	oversize := AppendFrame(nil, FrameBatch, nil)
	binary.LittleEndian.PutUint32(oversize[8:], MaxFramePayload+1)
	f.Add(oversize)
	unknown := AppendFrame(nil, FrameGoodbye, AppendGoodbye(nil, Goodbye{Code: CodeOK}))
	unknown[5] = 0x7F // unknown frame type
	f.Add(unknown)
	// Finite but far beyond any accelerometer: classified, these readings
	// give a NaN confidence, so the push must refuse them.
	huge := BatchMsg{Seq: 2, Config: testCfg, X: []float64{1e300}, Y: []float64{-1e300}, Z: []float64{0}}
	f.Add(AppendFrame(nil, FrameBatch, AppendBatch(nil, &huge)))

	svc, err := adasense.NewService(&adasense.System{Network: nn.New(15, 4, adasense.NumActivities, rng.New(1))})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, rest, err := DecodeFrame(data)

		rd := NewReader(bytes.NewReader(data))
		rf, rerr := rd.Next()
		if cap(rd.buf) > MaxFramePayload+TrailerLen {
			t.Fatalf("Reader buffer grew to %d bytes", cap(rd.buf))
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeFrame err %v but Reader err %v", err, rerr)
		}

		if err != nil {
			return
		}
		if rf.Type != fr.Type || !bytes.Equal(rf.Payload, fr.Payload) {
			t.Fatalf("Reader decoded %v/%d bytes, DecodeFrame %v/%d bytes",
				rf.Type, len(rf.Payload), fr.Type, len(fr.Payload))
		}
		consumed := data[:len(data)-len(rest)]
		if re := AppendFrame(nil, fr.Type, fr.Payload); !bytes.Equal(re, consumed) {
			t.Fatalf("re-encode mismatch: %x vs consumed %x", re, consumed)
		}

		// The payload codecs must reject-or-round-trip too; none may
		// panic on a payload that passed the envelope CRC.
		switch fr.Type {
		case FrameHello:
			if h, err := DecodeHello(fr.Payload); err == nil {
				if !bytes.Equal(AppendHello(nil, h), fr.Payload) {
					t.Fatal("hello re-encode mismatch")
				}
			}
		case FrameWelcome:
			if w, err := DecodeWelcome(fr.Payload); err == nil {
				if !bytes.Equal(AppendWelcome(nil, w), fr.Payload) {
					t.Fatal("welcome re-encode mismatch")
				}
			}
		case FrameBatch:
			var m BatchMsg
			if err := m.Decode(fr.Payload); err == nil {
				if !bytes.Equal(AppendBatch(nil, &m), fr.Payload) {
					t.Fatal("batch re-encode mismatch")
				}
				pushDecoded(t, svc, &m)
			}
		case FrameEvents:
			var m EventsMsg
			if err := m.Decode(fr.Payload); err == nil {
				if !bytes.Equal(AppendEvents(nil, &m), fr.Payload) {
					t.Fatal("events re-encode mismatch")
				}
			}
		case FrameConfig:
			if cfg, err := DecodeConfig(fr.Payload); err == nil {
				if !bytes.Equal(AppendConfig(nil, cfg), fr.Payload) {
					t.Fatal("config re-encode mismatch")
				}
			}
		case FrameRedirect:
			if r, err := DecodeRedirect(fr.Payload); err == nil {
				if !bytes.Equal(AppendRedirect(nil, r), fr.Payload) {
					t.Fatal("redirect re-encode mismatch")
				}
			}
		case FrameError:
			if e, err := DecodeError(fr.Payload); err == nil {
				if !bytes.Equal(AppendError(nil, e), fr.Payload) {
					t.Fatal("error re-encode mismatch")
				}
			}
		case FrameGoodbye:
			if g, err := DecodeGoodbye(fr.Payload); err == nil {
				if !bytes.Equal(AppendGoodbye(nil, g), fr.Payload) {
					t.Fatal("goodbye re-encode mismatch")
				}
			}
		}
	})
}

// FuzzReaderChunking feeds a byte stream to Reader in short reads of
// 1…256 bytes, each size taken in turn from chunks (1 byte at a time
// when chunks is empty; the last read returns io.EOF with its bytes).
// Reader must yield exactly the frames DecodeFrame finds one after
// another, and then stop: with io.EOF where the stream ends at a frame
// boundary, otherwise with an error matching the sentinel DecodeFrame
// stops with. However the reads split the stream, a hostile length never
// grows the Reader's buffer past MaxFramePayload + TrailerLen.
//
// The committed seeds in testdata/fuzz/FuzzReaderChunking cover frames
// split at every byte, a valid frame followed by an oversized length, a
// truncated frame, a corrupted CRC and an empty stream.
func FuzzReaderChunking(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, chunks []byte) {
		rd := NewReader(&chunkReader{data: data, chunks: chunks})
		rest := data
		for i := 0; ; i++ {
			rf, rerr := rd.Next()
			if cap(rd.buf) > MaxFramePayload+TrailerLen {
				t.Fatalf("frame %d: Reader buffer grew to %d bytes", i, cap(rd.buf))
			}
			if len(rest) == 0 {
				if rerr != io.EOF {
					t.Fatalf("frame %d: Reader gave %v/%v at the end of the stream, want io.EOF", i, rf.Type, rerr)
				}
				return
			}
			fr, next, err := DecodeFrame(rest)
			if err != nil {
				want := frameSentinel(err)
				if want == nil || !errors.Is(rerr, want) {
					t.Fatalf("frame %d: DecodeFrame err %v but Reader err %v", i, err, rerr)
				}
				return
			}
			if rerr != nil {
				t.Fatalf("frame %d: DecodeFrame decoded %v but Reader err %v", i, fr.Type, rerr)
			}
			if rf.Type != fr.Type || !bytes.Equal(rf.Payload, fr.Payload) {
				t.Fatalf("frame %d: Reader decoded %v/%d bytes, DecodeFrame %v/%d bytes",
					i, rf.Type, len(rf.Payload), fr.Type, len(fr.Payload))
			}
			rest = next
		}
	})
}

// frameSentinel returns the frame decoding error err matches, or nil.
func frameSentinel(err error) error {
	for _, s := range []error{ErrFrameTruncated, ErrBadMagic, ErrBadVersion, ErrBadFlags,
		ErrBadType, ErrFrameTooLarge, ErrBadChecksum} {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}

// chunkReader serves data in reads of 1 + chunks[i] bytes, cycling
// through chunks (1 byte per read when chunks is empty). The read that
// drains data returns io.EOF with its bytes.
type chunkReader struct {
	data, chunks []byte
	i            int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(r.chunks) > 0 {
		n += int(r.chunks[r.i%len(r.chunks)])
		r.i++
	}
	n = copy(p, r.data[:min(n, len(r.data))])
	r.data = r.data[n:]
	if len(r.data) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// pushDecoded pushes m's samples through a fresh session of svc, at the
// session's configuration, until at least 400 samples went in (two
// windows at 100 Hz). Every push must either fail with a *BatchError or
// emit only finite confidences.
func pushDecoded(t *testing.T, svc *adasense.Service, m *BatchMsg) {
	t.Helper()
	sess, err := svc.OpenSession("fuzz")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	reps := 1
	if n := len(m.X); n > 0 && n < 400 {
		reps = (400 + n - 1) / n
	}
	for i := 0; i < reps; i++ {
		b := &adasense.Batch{Config: sess.Config(), StartAt: m.StartAt, X: m.X, Y: m.Y, Z: m.Z}
		events, err := sess.Push(b)
		var be *adasense.BatchError
		if errors.As(err, &be) {
			return
		}
		if err != nil {
			t.Fatalf("push of a decoded batch: %v, want nil or a *BatchError", err)
		}
		for _, ev := range events {
			if c := ev.Classification.Confidence; math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("push emitted confidence %v", c)
			}
		}
	}
}
