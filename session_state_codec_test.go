package adasense

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// codecState builds a representative SessionState for codec tests: a
// mid-descent SPOT payload, a partially filled window, non-trivial
// energy, and a NaN smuggled into the window to pin bit-exact float
// round-tripping.
func codecState() *SessionState {
	st := &SessionState{
		Generation: 7,
		WindowSec:  2,
		HopSec:     1,
	}
	st.Engine.Config = ParetoStates()[1]
	st.Engine.Pending = 13
	for i := 0; i < 37; i++ {
		v := float64(i) * 0.25
		st.Engine.X = append(st.Engine.X, v)
		st.Engine.Y = append(st.Engine.Y, -v)
		st.Engine.Z = append(st.Engine.Z, v*v)
	}
	st.Engine.X[5] = math.NaN()
	st.Engine.CtlKind = "spot/1"
	st.Engine.CtlState = []byte{2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 1, 2, 0, 0, 0}
	st.Energy = EnergyEstimate{ElapsedSec: 123.5, ChargeUC: 9876.25}
	return st
}

// stEqual is reflect.DeepEqual over SessionState made NaN-tolerant by
// comparing float bit patterns through re-encoding.
func stEqual(t *testing.T, a, b *SessionState) {
	t.Helper()
	ab, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("states differ:\n%+v\n%+v", a, b)
	}
}

func TestSessionStateRoundTrip(t *testing.T) {
	st := codecState()
	buf, err := st.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != st.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(buf), st.EncodedLen())
	}
	if len(buf) > MaxSessionStateBytes {
		t.Fatalf("encoded %d bytes exceeds MaxSessionStateBytes %d", len(buf), MaxSessionStateBytes)
	}
	got, err := DecodeSessionState(buf)
	if err != nil {
		t.Fatal(err)
	}
	stEqual(t, st, got)
	// NaN survived bit-exactly.
	if !math.IsNaN(got.Engine.X[5]) {
		t.Fatal("NaN window sample did not round-trip")
	}
	// Save writes the same bytes AppendBinary produces.
	var w bytes.Buffer
	if err := st.Save(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), buf) {
		t.Fatal("Save and AppendBinary disagree")
	}
	// LoadSessionState is Decode over a reader.
	got2, err := LoadSessionState(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	stEqual(t, st, got2)
}

func TestSessionStateRoundTripEmpty(t *testing.T) {
	// The cold minimum: fresh session, stateless controller, no window.
	st := &SessionState{WindowSec: 2, HopSec: 1}
	st.Engine.Config = ParetoStates()[0]
	buf, err := st.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSessionState(buf)
	if err != nil {
		t.Fatal(err)
	}
	stEqual(t, st, got)
}

func TestSessionStateAppendBinaryPresizedDoesNotGrow(t *testing.T) {
	st := codecState()
	dst := make([]byte, 0, st.EncodedLen())
	buf, err := st.AppendBinary(dst)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[0] != &dst[:1][0] {
		t.Fatal("presized AppendBinary reallocated")
	}
}

func TestSessionStateAppendBinaryRejects(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(*SessionState)
	}{
		{"ragged axes", func(st *SessionState) { st.Engine.Y = st.Engine.Y[:1] }},
		{"oversize window", func(st *SessionState) {
			n := 1<<16 + 1
			st.Engine.X = make([]float64, n)
			st.Engine.Y = make([]float64, n)
			st.Engine.Z = make([]float64, n)
		}},
		{"oversize kind", func(st *SessionState) { st.Engine.CtlKind = string(make([]byte, 65)) }},
		{"oversize controller state", func(st *SessionState) { st.Engine.CtlState = make([]byte, 4097) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := codecState()
			tc.mangle(st)
			if _, err := st.AppendBinary(nil); err == nil {
				t.Fatal("unencodable state accepted")
			}
		})
	}
}

func TestDecodeSessionStateRejects(t *testing.T) {
	valid, err := codecState().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(mangle func([]byte) []byte) []byte {
		return mangle(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", valid[:8]},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"future version", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], sessionStateVersion+1)
			return b
		})},
		{"payload length mismatch", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], uint32(len(b))) // absurd
			return b
		})},
		{"corrupt payload fails CRC", mutate(func(b []byte) []byte { b[20] ^= 0xff; return b })},
		{"corrupt CRC", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })},
		{"trailing bytes", mutate(func(b []byte) []byte { return append(b, 0) })},
		{"oversize container", make([]byte, MaxSessionStateBytes+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSessionState(tc.data); err == nil {
				t.Fatal("bad container accepted")
			}
		})
	}
}

// TestDecodeSessionStateRejectsImplausibleLengths rewrites interior
// length fields (window samples, kind, controller state) past their
// bounds with a fixed-up CRC, so the reject comes from the bounds check
// itself — the defense that keeps a hostile 16-byte container from
// demanding a multi-gigabyte allocation.
func TestDecodeSessionStateRejectsImplausibleLengths(t *testing.T) {
	st := &SessionState{WindowSec: 2, HopSec: 1}
	st.Engine.Config = ParetoStates()[0]
	base, err := st.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Payload offsets for the empty state: gen 8 | win 8 | hop 8 |
	// freq 8 | avg 4 | pending 4 | nSamples 4 | kindLen 4 | ctlLen 4 |
	// energy 16. Payload starts at byte 12.
	const nSamplesOff = 12 + 8 + 8 + 8 + 8 + 4 + 4
	const kindLenOff = nSamplesOff + 4
	const ctlLenOff = kindLenOff + 4
	fix := func(b []byte) []byte {
		// Recompute the CRC over the edited payload.
		plen := int(binary.LittleEndian.Uint32(b[8:12]))
		binary.LittleEndian.PutUint32(b[12+plen:], crc32.ChecksumIEEE(b[12:12+plen]))
		return b
	}
	cases := []struct {
		name string
		off  int
		val  uint32
	}{
		{"window sample count", nSamplesOff, 1<<16 + 1},
		{"giant window sample count", nSamplesOff, math.MaxUint32},
		{"kind length", kindLenOff, 65},
		{"controller state length", ctlLenOff, 4097},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), base...)
			binary.LittleEndian.PutUint32(b[tc.off:], tc.val)
			if _, err := DecodeSessionState(fix(b)); err == nil {
				t.Fatal("implausible length accepted")
			}
		})
	}
}

// TestSessionStateAllocs pins the ADSS encoder at zero allocations when
// it appends into a buffer with room, as SnapshotInto's callers do.
func TestSessionStateAllocs(t *testing.T) {
	st := codecState()
	dst := make([]byte, 0, st.EncodedLen())
	cases := []struct {
		name string
		fn   func()
	}{
		{"encode", func() {
			if _, err := st.AppendBinary(dst[:0]); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
				t.Fatalf("%v allocs per call, want 0", got)
			}
		})
	}
}

func BenchmarkSessionStateEncode(b *testing.B) {
	st := codecState()
	dst := make([]byte, 0, st.EncodedLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := st.AppendBinary(dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		_ = buf
	}
}

func BenchmarkSessionStateDecode(b *testing.B) {
	buf, err := codecState().AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSessionState(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSessionStateGoldenV1 pins the committed ADSS v1 fixture: every
// future build must keep decoding containers written by this one. The
// fixture's fields are asserted exactly and the re-encode must
// reproduce the file byte for byte — if this test breaks, the format
// changed and needs a version bump plus a migration story, not a
// fixture refresh.
func TestSessionStateGoldenV1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "session_state_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeSessionState(data)
	if err != nil {
		t.Fatalf("golden v1 container no longer loads: %v", err)
	}
	if st.Generation != 3 || st.WindowSec != 2 || st.HopSec != 1 {
		t.Fatalf("golden header fields drifted: gen=%d window=%v hop=%v",
			st.Generation, st.WindowSec, st.HopSec)
	}
	if st.Engine.Config != ParetoStates()[1] {
		t.Fatalf("golden config drifted: %s", st.Engine.Config.Name())
	}
	if st.Engine.Pending != 7 || len(st.Engine.X) != 25 {
		t.Fatalf("golden window drifted: pending=%d samples=%d", st.Engine.Pending, len(st.Engine.X))
	}
	if st.Engine.X[8] != 1 || st.Engine.Y[8] != -1 || st.Engine.Z[8] != 0 {
		t.Fatalf("golden samples drifted: %v/%v/%v", st.Engine.X[8], st.Engine.Y[8], st.Engine.Z[8])
	}
	if st.Engine.CtlKind != "spot/1" || len(st.Engine.CtlState) != 17 {
		t.Fatalf("golden controller payload drifted: %q/%d", st.Engine.CtlKind, len(st.Engine.CtlState))
	}
	if st.Energy.ElapsedSec != 31.5 || st.Energy.ChargeUC != 2048 {
		t.Fatalf("golden energy drifted: %+v", st.Energy)
	}
	buf, err := st.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("golden fixture does not re-encode byte-identically")
	}
}

// TestSessionStateGoldenRejectsBumpedVersion is the forward-skew half of
// the golden test: the same container bytes with the version field
// bumped must be refused outright, never half-decoded — a replica that
// is behind the fleet's build fails a stateful handoff loudly and the
// device adopts cold.
func TestSessionStateGoldenRejectsBumpedVersion(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "session_state_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	bumped := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bumped[4:8], sessionStateVersion+1)
	if _, err := DecodeSessionState(bumped); err == nil {
		t.Fatal("future-version container accepted")
	}
}
