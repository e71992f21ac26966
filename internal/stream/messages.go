package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"adasense/internal/sensor"
)

// Payload codecs for the ADSP frame types. Encoding is append-style
// (zero-alloc into a caller buffer with capacity); decoding for the
// hot-path messages (batch, events) is into reusable structs so the
// steady-state push path allocates nothing. The layouts are normative
// in docs/streaming.md.
//
// Sensor configurations travel in binary — frequency as float64 bits
// plus the averaging window as uint32 — not as their "F100_A128"
// string names, so the hot path never formats or parses strings.

// Message size bounds, validated before any slice is sized so a
// hostile payload cannot drive allocation past them.
const (
	// maxStringBytes bounds every length-prefixed string (device ids,
	// tokens, replica ids and URLs, error messages).
	maxStringBytes = 1024
	// maxBatchSamples bounds one pushed batch's per-axis sample count
	// to what one frame carries: a batch payload is a 32-byte header
	// plus 24 bytes per sample, so (MaxFramePayload − 32) / 24 = 43689
	// (≈ 87 s at the densest 500 Hz config).
	maxBatchSamples = (MaxFramePayload - batchHeaderLen) / 24
	// maxEvents bounds one acknowledgement's classification event count.
	maxEvents = 1 << 12
)

// configWireLen is the encoded size of one sensor.Config: float64
// frequency bits plus uint32 averaging window.
const configWireLen = 12

// batchHeaderLen is the encoded size of a batch payload before its
// samples: seq, config, start time and the per-axis sample count.
const batchHeaderLen = 8 + configWireLen + 8 + 4

var errPayload = errors.New("stream: malformed payload")

// payloadReader is a latching bounds-checked cursor over one frame
// payload, in the style of the ADSS state decoder: the first
// out-of-bounds read marks the reader bad and every later read returns
// zero values, so codecs validate once at the end instead of after
// every field.
type payloadReader struct {
	buf []byte
	bad bool
}

func (d *payloadReader) take(n int) []byte {
	if d.bad || n < 0 || len(d.buf) < n {
		d.bad = true
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *payloadReader) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *payloadReader) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *payloadReader) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *payloadReader) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *payloadReader) f64() float64 { return math.Float64frombits(d.u64()) }

// boolByte reads one strict boolean byte. Anything but 0 or 1 is a
// protocol error, which keeps encode∘decode the identity on every
// accepted frame (the property the fuzz target checks).
func (d *payloadReader) boolByte() bool {
	b := d.u8()
	if b > 1 {
		d.bad = true
	}
	return b == 1
}

// str reads one u32-length-prefixed string, refusing lengths beyond
// maxStringBytes before anything is copied.
func (d *payloadReader) str() string {
	n := d.u32()
	if n > maxStringBytes {
		d.bad = true
		return ""
	}
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// config reads one wire-encoded sensor configuration and validates it.
func (d *payloadReader) config() sensor.Config {
	cfg := sensor.Config{FreqHz: d.f64(), AvgWindow: int(int32(d.u32()))}
	if d.bad {
		return sensor.Config{}
	}
	// Validate catches non-positive and too-fast rates; the explicit NaN
	// check closes the one hole IEEE comparisons leave open.
	if math.IsNaN(cfg.FreqHz) || cfg.Validate() != nil {
		d.bad = true
		return sensor.Config{}
	}
	return cfg
}

// f64sInto reads n float64s into dst, reusing its capacity.
func (d *payloadReader) f64sInto(dst []float64, n int) []float64 {
	b := d.take(8 * n)
	if b == nil {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

// done latches the terminal validation: a decode is well-formed only
// if every read stayed in bounds and no payload bytes remain.
func (d *payloadReader) done(what string) error {
	if d.bad {
		return fmt.Errorf("%w: %s", errPayload, what)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %s carries %d trailing bytes", errPayload, what, len(d.buf))
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	if len(s) > maxStringBytes {
		s = s[:maxStringBytes]
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendConfig appends one wire-encoded sensor configuration.
func AppendConfig(dst []byte, cfg sensor.Config) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.FreqHz))
	return binary.LittleEndian.AppendUint32(dst, uint32(cfg.AvgWindow))
}

// DecodeConfig decodes a config frame payload (FrameConfig).
func DecodeConfig(p []byte) (sensor.Config, error) {
	d := payloadReader{buf: p}
	cfg := d.config()
	return cfg, d.done("config")
}

// Hello is the client's opening frame: its device id and bearer token.
type Hello struct {
	Device string
	Token  string
}

// AppendHello appends a hello payload.
func AppendHello(dst []byte, h Hello) []byte {
	dst = appendString(dst, h.Device)
	return appendString(dst, h.Token)
}

// DecodeHello decodes a hello payload.
func DecodeHello(p []byte) (Hello, error) {
	d := payloadReader{buf: p}
	h := Hello{Device: d.str(), Token: d.str()}
	return h, d.done("hello")
}

// Welcome accepts a hello: the config the device must sample at, the
// serving model generation, and whether an existing session resumed.
type Welcome struct {
	Config   sensor.Config
	ModelGen uint64
	Resumed  bool
}

// AppendWelcome appends a welcome payload.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = AppendConfig(dst, w.Config)
	dst = binary.LittleEndian.AppendUint64(dst, w.ModelGen)
	resumed := byte(0)
	if w.Resumed {
		resumed = 1
	}
	return append(dst, resumed)
}

// DecodeWelcome decodes a welcome payload.
func DecodeWelcome(p []byte) (Welcome, error) {
	d := payloadReader{buf: p}
	w := Welcome{Config: d.config(), ModelGen: d.u64(), Resumed: d.boolByte()}
	return w, d.done("welcome")
}

// BatchMsg is one pushed batch of raw 3-axis samples. Seq is the
// client's monotonically increasing push ordinal; the acknowledging
// events or error frame echoes it.
type BatchMsg struct {
	Seq     uint64
	Config  sensor.Config
	StartAt float64
	X, Y, Z []float64
}

// AppendBatch appends a batch payload. The three axes must have equal
// length in 1..maxBatchSamples, which Client.Push checks; longer
// batches must be split by the sender (the decoder refuses them, and
// EndFrame panics on the oversized payload).
func AppendBatch(dst []byte, m *BatchMsg) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = AppendConfig(dst, m.Config)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.StartAt))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.X)))
	for _, axis := range [3][]float64{m.X, m.Y, m.Z} {
		for _, v := range axis {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// Decode decodes a batch payload into m, reusing the X/Y/Z capacity —
// steady-state batch decode allocates nothing. The sample count is
// bound-checked before the axis slices are sized.
func (m *BatchMsg) Decode(p []byte) error {
	d := payloadReader{buf: p}
	m.Seq = d.u64()
	m.Config = d.config()
	m.StartAt = d.f64()
	n := d.u32()
	if n == 0 || n > maxBatchSamples {
		return fmt.Errorf("%w: batch sample count %d (want 1..%d)", errPayload, n, maxBatchSamples)
	}
	m.X = d.f64sInto(m.X, int(n))
	m.Y = d.f64sInto(m.Y, int(n))
	m.Z = d.f64sInto(m.Z, int(n))
	return d.done("batch")
}

// Event is one classification tick inside an events acknowledgement:
// the activity index (internal/synth's class table), its confidence,
// the config the tick was classified under and whether the adaptation
// controller switched configs at this tick.
type Event struct {
	Activity      uint8
	Confidence    float64
	Config        sensor.Config
	ConfigChanged bool
}

// EventsMsg acknowledges the batch with ordinal Seq: its completed
// classification events plus the config the device must sample at from
// now on (Config is the server-push half of the adaptation loop).
type EventsMsg struct {
	Seq    uint64
	Config sensor.Config
	Events []Event
}

// AppendEvents appends an events payload. At most maxEvents events are
// representable; a session never completes more per batch.
func AppendEvents(dst []byte, m *EventsMsg) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = AppendConfig(dst, m.Config)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Events)))
	for i := range m.Events {
		ev := &m.Events[i]
		changed := byte(0)
		if ev.ConfigChanged {
			changed = 1
		}
		dst = append(dst, ev.Activity, changed)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.Confidence))
		dst = AppendConfig(dst, ev.Config)
	}
	return dst
}

// Decode decodes an events payload into m, reusing the Events
// capacity.
func (m *EventsMsg) Decode(p []byte) error {
	d := payloadReader{buf: p}
	m.Seq = d.u64()
	m.Config = d.config()
	n := int(d.u16())
	if n > maxEvents {
		return fmt.Errorf("%w: event count %d > %d", errPayload, n, maxEvents)
	}
	if cap(m.Events) < n {
		m.Events = make([]Event, n)
	}
	m.Events = m.Events[:n]
	for i := range m.Events {
		ev := &m.Events[i]
		ev.Activity = d.u8()
		ev.ConfigChanged = d.boolByte()
		ev.Confidence = d.f64()
		ev.Config = d.config()
	}
	return d.done("events")
}

// Redirect names the replica that owns the device, so a misrouted
// connection can re-dial its owner directly.
type Redirect struct {
	ReplicaID  string
	ReplicaURL string
}

// AppendRedirect appends a redirect payload.
func AppendRedirect(dst []byte, r Redirect) []byte {
	dst = appendString(dst, r.ReplicaID)
	return appendString(dst, r.ReplicaURL)
}

// DecodeRedirect decodes a redirect payload.
func DecodeRedirect(p []byte) (Redirect, error) {
	d := payloadReader{buf: p}
	r := Redirect{ReplicaID: d.str(), ReplicaURL: d.str()}
	return r, d.done("redirect")
}

// ErrorMsg reports a per-batch failure that leaves the connection
// open. Seq echoes the refused batch; Config is the configuration the
// device must currently sample at, so a config-mismatch refusal is
// self-healing.
type ErrorMsg struct {
	Seq    uint64
	Code   CloseCode
	Config sensor.Config
	Msg    string
}

// AppendError appends an error payload.
func AppendError(dst []byte, e ErrorMsg) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(e.Code))
	dst = AppendConfig(dst, e.Config)
	return appendString(dst, e.Msg)
}

// DecodeError decodes an error payload.
func DecodeError(p []byte) (ErrorMsg, error) {
	d := payloadReader{buf: p}
	e := ErrorMsg{Seq: d.u64(), Code: CloseCode(d.u16()), Config: d.config(), Msg: d.str()}
	return e, d.done("error")
}

// Goodbye closes the connection gracefully with a close code.
type Goodbye struct {
	Code CloseCode
	Msg  string
}

// AppendGoodbye appends a goodbye payload.
func AppendGoodbye(dst []byte, g Goodbye) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(g.Code))
	return appendString(dst, g.Msg)
}

// DecodeGoodbye decodes a goodbye payload.
func DecodeGoodbye(p []byte) (Goodbye, error) {
	d := payloadReader{buf: p}
	g := Goodbye{Code: CloseCode(d.u16()), Msg: d.str()}
	return g, d.done("goodbye")
}
