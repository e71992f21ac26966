// Package stream implements ADSP, the adasense streaming protocol: a
// versioned, length-prefixed, CRC-protected binary frame container
// carried over one persistent connection per device (raw TCP, or the
// gateway's HTTP port after an HTTP/1.1 upgrade — the framing is
// transport-agnostic, any ordered byte stream works). It replaces the per-batch HTTP/JSON request with a single
// long-lived push channel: the device sends sensor-batch frames, the
// gateway answers with classification events and server-pushed sensor
// reconfigurations (the paper's adaptation loop, without polling), and
// ring-routing mistakes are answered with a redirect frame so the
// device reconnects to its owner instead of paying a proxy hop per
// push.
//
// The container discipline matches the repo's other binary formats
// (ADSC model containers, ADSS session state): magic, version byte,
// explicit payload length bound-checked before any allocation, and a
// CRC32 over the payload so truncation and corruption are detected at
// the frame boundary. The decode path is allocation-free at steady
// state: Reader reuses one read-ahead buffer across frames, and the
// per-message Decode methods reuse the caller's slices.
//
// docs/streaming.md is the normative wire specification; the constants
// in this file are its source of truth (scripts/check-docs.sh
// cross-checks them against the spec tables).
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame envelope layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "ADSP"
//	4       1     version (1)
//	5       1     frame type
//	6       2     flags (reserved, must be 0 in version 1)
//	8       4     payload length n (≤ MaxFramePayload)
//	12      n     payload
//	12+n    4     CRC32 (IEEE) of the payload bytes
const (
	// Magic opens every ADSP frame.
	Magic = "ADSP"
	// Version is the protocol version this package speaks. Version
	// checking is strict: a frame carrying any other version is refused.
	Version = 1
	// HeaderLen is the fixed envelope prefix before the payload.
	HeaderLen = 12
	// TrailerLen is the CRC32 suffix after the payload.
	TrailerLen = 4
	// FrameOverhead is the total envelope cost per frame.
	FrameOverhead = HeaderLen + TrailerLen
	// MaxFramePayload bounds one frame's payload. It is validated before
	// any buffer is sized, so a hostile length prefix cannot drive an
	// allocation larger than this.
	MaxFramePayload = 1 << 20
)

// FrameType identifies what a frame's payload carries. Unknown types
// are a protocol error in version 1 (strict, like the flags field): a
// future version that adds types bumps Version.
type FrameType uint8

// The ADSP frame types. The zero value is invalid on the wire.
const (
	// FrameHello is the connection's first client frame: device id plus
	// bearer token (auth is in-band so the HTTP upgrade and raw TCP
	// share one handshake).
	FrameHello FrameType = 0x01
	// FrameWelcome accepts a hello: the sensor config the device must
	// sample at, the serving model generation, and whether the session
	// resumed an existing one.
	FrameWelcome FrameType = 0x02
	// FrameBatch pushes one batch of raw 3-axis samples upstream.
	FrameBatch FrameType = 0x03
	// FrameEvents acknowledges one batch with its completed
	// classification events and the device's current directed config.
	FrameEvents FrameType = 0x04
	// FrameConfig is a server-initiated sensor reconfiguration push.
	FrameConfig FrameType = 0x05
	// FramePing is a liveness probe (either direction); the payload is
	// opaque and echoed back.
	FramePing FrameType = 0x06
	// FramePong answers a ping, echoing its payload.
	FramePong FrameType = 0x07
	// FrameRedirect tells a misrouted device which replica owns it; a
	// goodbye frame with CodeRedirect follows.
	FrameRedirect FrameType = 0x08
	// FrameError reports a per-batch failure that leaves the connection
	// open (rate limit, config mismatch).
	FrameError FrameType = 0x09
	// FrameGoodbye closes the connection gracefully with a close code.
	FrameGoodbye FrameType = 0x0A
)

// frameNames maps the frame types to their metric label / spec names.
var frameNames = [...]string{
	FrameHello:    "hello",
	FrameWelcome:  "welcome",
	FrameBatch:    "batch",
	FrameEvents:   "events",
	FrameConfig:   "config",
	FramePing:     "ping",
	FramePong:     "pong",
	FrameRedirect: "redirect",
	FrameError:    "error",
	FrameGoodbye:  "goodbye",
}

// Valid reports whether t is a frame type this protocol version knows.
func (t FrameType) Valid() bool { return t >= FrameHello && t <= FrameGoodbye }

// String returns the frame type's wire-spec name, which is also its
// metric label value.
func (t FrameType) String() string {
	if t.Valid() {
		return frameNames[t]
	}
	return "unknown"
}

// CloseCode explains why a connection is closing (goodbye frames) or
// why a batch was refused (error frames). Codes are stable wire
// constants documented in docs/streaming.md.
type CloseCode uint16

// The ADSP close and error codes.
const (
	// CodeOK is a clean, voluntary close.
	CodeOK CloseCode = 0
	// CodeProtocol rejects a malformed or out-of-order frame.
	CodeProtocol CloseCode = 1
	// CodeUnauthorized rejects a hello with a missing or wrong token.
	CodeUnauthorized CloseCode = 2
	// CodeVersion rejects an unsupported protocol version.
	CodeVersion CloseCode = 3
	// CodeTooLarge rejects a frame whose payload exceeds the limit.
	CodeTooLarge CloseCode = 4
	// CodeRateLimited refuses one batch at a token bucket; the
	// connection stays open and the device retries after backoff.
	CodeRateLimited CloseCode = 5
	// CodeDraining closes because the gateway is shutting down.
	CodeDraining CloseCode = 6
	// CodeRedirect closes because another replica owns the device; a
	// redirect frame naming the owner precedes the goodbye.
	CodeRedirect CloseCode = 7
	// CodeSessionClosed closes because the bound session was closed
	// underneath the connection (eviction, operator delete).
	CodeSessionClosed CloseCode = 8
	// CodeNotOwned rejects a device this replica's ring does not place
	// here and whose owner is unknown.
	CodeNotOwned CloseCode = 9
	// CodeBadBatch refuses one batch the session cannot accept (config
	// mismatch, malformed samples); the error frame carries the config
	// the device must resample at.
	CodeBadBatch CloseCode = 10
	// CodeInternal closes on an unexpected server-side failure.
	CodeInternal CloseCode = 11
	// CodeCapacity refuses a hello because the session registry is at
	// its max-sessions cap.
	CodeCapacity CloseCode = 12
)

// codeNames maps close codes to their spec names.
var codeNames = [...]string{
	CodeOK:            "ok",
	CodeProtocol:      "protocol",
	CodeUnauthorized:  "unauthorized",
	CodeVersion:       "version",
	CodeTooLarge:      "too_large",
	CodeRateLimited:   "rate_limited",
	CodeDraining:      "draining",
	CodeRedirect:      "redirect",
	CodeSessionClosed: "session_closed",
	CodeNotOwned:      "not_owned",
	CodeBadBatch:      "bad_batch",
	CodeInternal:      "internal",
	CodeCapacity:      "capacity",
}

// String returns the close code's spec name.
func (c CloseCode) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return "unknown"
}

// Frame decoding errors. Reader and DecodeFrame wrap these with
// positional detail; match with errors.Is.
var (
	// ErrFrameTruncated reports a frame shorter than its envelope claims.
	ErrFrameTruncated = errors.New("stream: truncated frame")
	// ErrBadMagic reports bytes that do not open with "ADSP".
	ErrBadMagic = errors.New("stream: bad frame magic")
	// ErrBadVersion reports an unsupported protocol version byte.
	ErrBadVersion = errors.New("stream: unsupported protocol version")
	// ErrBadFlags reports nonzero reserved flags (strict in version 1).
	ErrBadFlags = errors.New("stream: nonzero reserved frame flags")
	// ErrBadType reports an unknown frame type byte.
	ErrBadType = errors.New("stream: unknown frame type")
	// ErrFrameTooLarge reports a payload length above MaxFramePayload.
	ErrFrameTooLarge = errors.New("stream: frame payload exceeds limit")
	// ErrBadChecksum reports a payload failing its CRC32.
	ErrBadChecksum = errors.New("stream: frame checksum mismatch")
)

// Frame is one decoded ADSP frame. Payload aliases the decode source
// (a Reader's internal buffer or the DecodeFrame input) and is only
// valid until the next read into that buffer.
type Frame struct {
	Type    FrameType
	Payload []byte
}

// BeginFrame appends a frame envelope header for typ to dst with a
// zero length placeholder, returning the extended slice. The caller
// appends the payload in place and seals the frame with EndFrame,
// passing len(dst) as it was before this call — building a frame
// around an in-place payload without a staging copy.
func BeginFrame(dst []byte, typ FrameType) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, Version, byte(typ))
	dst = binary.LittleEndian.AppendUint16(dst, 0) // flags, reserved
	return binary.LittleEndian.AppendUint32(dst, 0)
}

// EndFrame seals a frame begun with BeginFrame at offset start:
// patches the payload length and appends the payload CRC32. It panics
// if the payload outgrew MaxFramePayload — message encoders bound
// their inputs, so an oversized payload is a programming error, not a
// wire condition.
func EndFrame(dst []byte, start int) []byte {
	n := len(dst) - start - HeaderLen
	if n < 0 || n > MaxFramePayload {
		panic(fmt.Sprintf("stream: EndFrame payload length %d out of range", n))
	}
	binary.LittleEndian.PutUint32(dst[start+8:], uint32(n))
	payload := dst[start+HeaderLen:]
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// AppendFrame appends one complete frame carrying payload to dst and
// returns the extended slice. Appending into a slice with sufficient
// capacity does not allocate. Panics if payload exceeds
// MaxFramePayload (see EndFrame).
func AppendFrame(dst []byte, typ FrameType, payload []byte) []byte {
	start := len(dst)
	dst = BeginFrame(dst, typ)
	dst = append(dst, payload...)
	return EndFrame(dst, start)
}

// DecodeFrame decodes the first frame in data, returning it and the
// remaining bytes. The frame's payload aliases data. All envelope
// fields are validated — magic, version, reserved flags, type, length
// bound, CRC — before the payload is touched, and no allocation
// happens on any input.
func DecodeFrame(data []byte) (Frame, []byte, error) {
	if len(data) < HeaderLen {
		return Frame{}, nil, fmt.Errorf("%w: %d header bytes of %d", ErrFrameTruncated, len(data), HeaderLen)
	}
	typ, n, err := checkHeader(data)
	if err != nil {
		return Frame{}, nil, err
	}
	if uint64(len(data)) < FrameOverhead+uint64(n) {
		return Frame{}, nil, fmt.Errorf("%w: %d bytes of %d", ErrFrameTruncated, len(data), FrameOverhead+n)
	}
	payload := data[HeaderLen : HeaderLen+n]
	want := binary.LittleEndian.Uint32(data[HeaderLen+n : FrameOverhead+n])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Frame{}, nil, fmt.Errorf("%w: got %08x want %08x", ErrBadChecksum, got, want)
	}
	return Frame{Type: typ, Payload: payload}, data[FrameOverhead+n:], nil
}

// checkHeader validates a frame header — magic, version, type, reserved
// flags, length bound — and returns its type and payload length.
func checkHeader(h []byte) (FrameType, uint32, error) {
	if string(h[:4]) != Magic {
		return 0, 0, ErrBadMagic
	}
	if h[4] != Version {
		return 0, 0, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, h[4], Version)
	}
	typ := FrameType(h[5])
	if !typ.Valid() {
		return 0, 0, fmt.Errorf("%w: 0x%02x", ErrBadType, h[5])
	}
	if flags := binary.LittleEndian.Uint16(h[6:8]); flags != 0 {
		return 0, 0, fmt.Errorf("%w: 0x%04x", ErrBadFlags, flags)
	}
	n := binary.LittleEndian.Uint32(h[8:12])
	if n > MaxFramePayload {
		return 0, 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, MaxFramePayload)
	}
	return typ, n, nil
}

// Reader decodes a sequence of frames from a byte stream through one
// reused buffer that it reads ahead into: one Read takes whatever the
// stream holds, and Next parses frames out of it, keeping leftover bytes
// for the next call. A peer writing one frame at a time is served with
// one Read per frame. After warm-up, Next allocates nothing. The
// returned Frame's payload is valid only until the next call. Reader is
// not safe for concurrent use.
type Reader struct {
	r io.Reader
	// buf[off:end] holds bytes read but not yet parsed. The buffer grows
	// only after a header passed the length-bound check, and never past
	// MaxFramePayload+TrailerLen: a frame's parsed header is dropped
	// before its payload needs the room.
	buf      []byte
	off, end int
	// inFrame is set once a header is parsed and its payload is still
	// to come; typ and n are that header's type and payload length.
	inFrame bool
	typ     FrameType
	n       int
	// err is the last Read's error, held back while the bytes that came
	// with it still complete frames, then reported once.
	err error
}

// minReadBuf is the Reader's first buffer size: room for the small
// control frames; the first larger frame grows it.
const minReadBuf = 512

// NewReader returns a Reader decoding frames from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next returns the next frame. A clean end of stream at a frame boundary
// returns io.EOF; a stream ending mid-frame returns an ErrFrameTruncated
// error. The envelope's length field is validated against
// MaxFramePayload before the buffer is sized, so a hostile peer cannot
// drive allocation beyond that bound. After any other read error (a
// deadline, say) Next may be called again and resumes where it stopped.
func (rd *Reader) Next() (Frame, error) {
	if !rd.inFrame {
		if err := rd.fill(HeaderLen); err != nil {
			if err == io.EOF && rd.off == rd.end {
				return Frame{}, io.EOF
			}
			return Frame{}, truncated(err)
		}
		typ, n, err := checkHeader(rd.buf[rd.off:rd.end])
		if err != nil {
			return Frame{}, err
		}
		rd.off += HeaderLen
		rd.inFrame, rd.typ, rd.n = true, typ, int(n)
	}
	need := rd.n + TrailerLen
	if err := rd.fill(need); err != nil {
		return Frame{}, truncated(err)
	}
	rd.inFrame = false
	frame := rd.buf[rd.off : rd.off+need]
	rd.off += need
	payload := frame[:rd.n]
	want := binary.LittleEndian.Uint32(frame[rd.n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Frame{}, fmt.Errorf("%w: got %08x want %08x", ErrBadChecksum, got, want)
	}
	return Frame{Type: rd.typ, Payload: payload}, nil
}

// truncated maps an end of stream inside a frame to ErrFrameTruncated
// and passes any other read error through.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %v", ErrFrameTruncated, io.ErrUnexpectedEOF)
	}
	return err
}

// fill reads until buf[off:end] holds at least need bytes, or returns
// the read error that stopped it. Each Read asks for all the room the
// buffer has. need never exceeds MaxFramePayload+TrailerLen.
func (rd *Reader) fill(need int) error {
	if rd.off == rd.end {
		rd.off, rd.end = 0, 0
	}
	for rd.end-rd.off < need {
		if err := rd.err; err != nil {
			rd.err = nil
			return err
		}
		if need > len(rd.buf)-rd.off {
			buf := rd.buf
			if need > len(buf) {
				// Room for the next frame's header too, so a frame
				// of this size arrives in one read.
				size := max(need+HeaderLen, 2*len(buf), minReadBuf)
				buf = make([]byte, min(size, MaxFramePayload+TrailerLen))
			}
			rd.end = copy(buf, rd.buf[rd.off:rd.end])
			rd.buf, rd.off = buf, 0
		}
		n, err := rd.r.Read(rd.buf[rd.end:])
		rd.end += n
		rd.err = err
	}
	return nil
}
