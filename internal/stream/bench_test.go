package stream

import (
	"sync/atomic"
	"testing"
)

// benchBatch is a realistic push: 128 samples per axis at the F100
// config, the batch size one classification window needs.
func benchBatch() *BatchMsg {
	m := &BatchMsg{Seq: 1, Config: testCfg, StartAt: 0}
	m.X = make([]float64, 128)
	m.Y = make([]float64, 128)
	m.Z = make([]float64, 128)
	for i := range m.X {
		m.X[i] = float64(i) * 0.01
		m.Y[i] = float64(i) * 0.02
		m.Z[i] = float64(i) * 0.03
	}
	return m
}

// TestStreamFrameAllocs pins the frame codec's hot paths at zero
// allocations: building a batch frame into a reused buffer (the device
// and ack side), validating plus decoding one into a reused BatchMsg
// (the gateway side), and the streaming Reader's read of the next frame
// into its reused payload buffer.
func TestStreamFrameAllocs(t *testing.T) {
	m := benchBatch()
	var buf []byte
	data := AppendFrame(nil, FrameBatch, AppendBatch(nil, m))
	var dec BatchMsg
	rd := NewReader(&loopReader{data: data})
	cases := []struct {
		name string
		fn   func()
	}{
		{"encode", func() {
			buf = BeginFrame(buf[:0], FrameBatch)
			buf = AppendBatch(buf, m)
			buf = EndFrame(buf, 0)
		}},
		{"decode", func() {
			f, _, err := DecodeFrame(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.Decode(f.Payload); err != nil {
				t.Fatal(err)
			}
		}},
		{"reader next", func() {
			if _, err := rd.Next(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn() // size the reused buffers
			if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
				t.Fatalf("%v allocs per frame, want 0", got)
			}
		})
	}
}

// BenchmarkStreamFrameEncode measures building one batch frame into a
// reused buffer — the device-side (and ack-side) hot path. Pinned at 0
// allocs/op by TestStreamFrameAllocs.
func BenchmarkStreamFrameEncode(b *testing.B) {
	m := benchBatch()
	var buf []byte
	buf = BeginFrame(buf[:0], FrameBatch)
	buf = AppendBatch(buf, m)
	buf = EndFrame(buf, 0)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = BeginFrame(buf[:0], FrameBatch)
		buf = AppendBatch(buf, m)
		buf = EndFrame(buf, 0)
	}
}

// BenchmarkStreamFrameDecode measures envelope validation plus batch
// payload decode into reused structs — the gateway-side hot path.
// Pinned at 0 allocs/op by TestStreamFrameAllocs.
func BenchmarkStreamFrameDecode(b *testing.B) {
	m := benchBatch()
	data := AppendFrame(nil, FrameBatch, AppendBatch(nil, m))
	var dec BatchMsg
	if err := dec.Decode(data[HeaderLen : len(data)-TrailerLen]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _, err := DecodeFrame(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.Decode(f.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// loopReader feeds the same encoded frame forever, so the streaming
// Reader's steady state is measurable without a real peer.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// BenchmarkStreamReaderNext measures the full streaming decode loop —
// header read, validation, payload+CRC read into the reused buffer.
// Pinned at 0 allocs/op by TestStreamFrameAllocs.
func BenchmarkStreamReaderNext(b *testing.B) {
	m := benchBatch()
	data := AppendFrame(nil, FrameBatch, AppendBatch(nil, m))
	rd := NewReader(&loopReader{data: data})
	if _, err := rd.Next(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamBatcher measures admission throughput under
// concurrent submitters — the coalescing path the streamed pushes
// funnel through.
func BenchmarkStreamBatcher(b *testing.B) {
	var executed atomic.Int64
	bt := NewBatcher(4, 256, nil, nil)
	defer bt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		task := NewTask()
		fn := func() { executed.Add(1) }
		for pb.Next() {
			bt.Submit(task, fn)
		}
	})
}
