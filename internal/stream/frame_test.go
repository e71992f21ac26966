package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello adsp")
	data := AppendFrame(nil, FrameBatch, payload)
	if len(data) != FrameOverhead+len(payload) {
		t.Fatalf("frame length = %d, want %d", len(data), FrameOverhead+len(payload))
	}
	f, rest, err := DecodeFrame(data)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if f.Type != FrameBatch || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("decoded %v %q", f.Type, f.Payload)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d bytes, want 0", len(rest))
	}
}

func TestFrameSequenceAndReader(t *testing.T) {
	var data []byte
	payloads := [][]byte{[]byte("one"), {}, []byte(strings.Repeat("x", 1000))}
	types := []FrameType{FrameHello, FramePing, FrameEvents}
	for i, p := range payloads {
		data = AppendFrame(data, types[i], p)
	}

	// Slice-at-a-time decoding.
	rest := data
	for i := range payloads {
		var f Frame
		var err error
		f, rest, err = DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != types[i] || !bytes.Equal(f.Payload, payloads[i]) {
			t.Fatalf("frame %d = %v %q", i, f.Type, f.Payload)
		}
	}

	// Streaming decoding through one Reader.
	rd := NewReader(bytes.NewReader(data))
	for i := range payloads {
		f, err := rd.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if f.Type != types[i] || !bytes.Equal(f.Payload, payloads[i]) {
			t.Fatalf("Next %d = %v %q", i, f.Type, f.Payload)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("Next at end = %v, want io.EOF", err)
	}
}

func TestBeginEndFrameMatchesAppendFrame(t *testing.T) {
	payload := []byte("in-place payload")
	want := AppendFrame(nil, FrameConfig, payload)
	prefix := []byte("prefix")
	got := append([]byte(nil), prefix...)
	start := len(got)
	got = BeginFrame(got, FrameConfig)
	got = append(got, payload...)
	got = EndFrame(got, start)
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("BeginFrame/EndFrame differs from AppendFrame")
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	good := AppendFrame(nil, FrameBatch, []byte("payload"))
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		fn(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short header", good[:HeaderLen-1], ErrFrameTruncated},
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"bad version", mutate(func(b []byte) { b[4] = 99 }), ErrBadVersion},
		{"bad type", mutate(func(b []byte) { b[5] = 0xEE }), ErrBadType},
		{"zero type", mutate(func(b []byte) { b[5] = 0 }), ErrBadType},
		{"nonzero flags", mutate(func(b []byte) { b[6] = 1 }), ErrBadFlags},
		{"oversize length", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], MaxFramePayload+1)
		}), ErrFrameTooLarge},
		{"truncated payload", good[:len(good)-5], ErrFrameTruncated},
		{"bad crc", mutate(func(b []byte) { b[len(b)-1] ^= 0xff }), ErrBadChecksum},
		{"corrupt payload", mutate(func(b []byte) { b[HeaderLen] ^= 0xff }), ErrBadChecksum},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		rd := NewReader(bytes.NewReader(tc.data))
		if _, err := rd.Next(); !errors.Is(err, tc.want) && !errors.Is(err, ErrFrameTruncated) {
			t.Errorf("%s (Reader): err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReaderHostileLength proves the length bound is enforced before
// the buffer is sized: a header advertising 4 GiB must be refused
// without growing the buffer, as the first frame of a stream and after
// a valid frame.
func TestReaderHostileLength(t *testing.T) {
	hdr := make([]byte, HeaderLen)
	copy(hdr, Magic)
	hdr[4] = Version
	hdr[5] = byte(FrameBatch)
	binary.LittleEndian.PutUint32(hdr[8:], 0xFFFFFFFF)
	ping := AppendFrame(nil, FramePing, []byte("ping"))
	for _, data := range [][]byte{hdr, append(ping, hdr...)} {
		rd := NewReader(bytes.NewReader(data))
		_, err := rd.Next()
		for err == nil {
			_, err = rd.Next()
		}
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
		if cap(rd.buf) > minReadBuf {
			t.Fatalf("reader grew its buffer to %d bytes for a refused frame", cap(rd.buf))
		}
	}
}

func TestEndFramePanicsOnOversizedPayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EndFrame did not panic on oversized payload")
		}
	}()
	dst := BeginFrame(nil, FrameBatch)
	dst = append(dst, make([]byte, MaxFramePayload+1)...)
	EndFrame(dst, 0)
}

func TestFrameTypeAndCodeNames(t *testing.T) {
	for typ := FrameHello; typ <= FrameGoodbye; typ++ {
		if !typ.Valid() {
			t.Errorf("%#x: Valid() = false", uint8(typ))
		}
		if typ.String() == "unknown" || typ.String() == "" {
			t.Errorf("%#x: unnamed frame type", uint8(typ))
		}
	}
	for _, typ := range []FrameType{0, 0x0B, 0xFF} {
		if typ.Valid() || typ.String() != "unknown" {
			t.Errorf("%#x: accepted as valid", uint8(typ))
		}
	}
	for code := CodeOK; code <= CodeCapacity; code++ {
		if code.String() == "unknown" || code.String() == "" {
			t.Errorf("code %d: unnamed", code)
		}
	}
	if CloseCode(200).String() != "unknown" {
		t.Error("out-of-range close code has a name")
	}
}
