package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"net/http"
	"strconv"
	"sync"

	"adasense"
)

// The JSON door's batch codec. encoding/json reflecting over a few
// hundred float64 samples used to be most of the door's CPU, so a
// pushed or classified batch is decoded by a single-pass parser for the
// canonical shape, and the reply is appended byte by byte into reused
// scratch. encoding/json stays the reference: any body the parser does
// not recognise goes to json.Unmarshal on the same bytes, so acceptance
// and decoded values are identical by construction (FuzzDecodeBatch
// holds the two to that), and the replies are byte-identical to what
// json.Encoder writes (TestReplyEncodingMatchesEncodingJSON).

// maxPooledBody bounds the body buffer a scratch may carry back into
// the pool, so one huge batch does not stay pinned behind every later
// small one.
const maxPooledBody = 1 << 20

// batchScratch is one request's reusable decode and encode state.
type batchScratch struct {
	body    bytes.Buffer
	bj      batchJSON
	batch   adasense.Batch
	x, y, z []float64        // sample storage the parser reuses
	config  string           // last config name parsed, reused while it repeats
	events  []adasense.Event // the push's events
	out     []byte           // reply encoding
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getBatchScratch takes a scratch from the pool. Its buffers back the
// batch handed to GatewaySession.PushAppend or Gateway.Classify, the
// events PushAppend appends and the reply written after them, so the
// handler must putBatchScratch only once the synchronous call has
// returned and the reply is written: neither call retains the batch's
// sample slices past the call, and a ResponseWriter does not retain
// what it is given to Write.
func getBatchScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

func putBatchScratch(sc *batchScratch) {
	if sc.body.Cap() <= maxPooledBody {
		batchScratchPool.Put(sc)
	}
}

// readBatch reads the size-capped request body and decodes it into a
// batch backed by sc. The samples are checked where the batch is pushed
// or classified.
func (sc *batchScratch) readBatch(w http.ResponseWriter, r *http.Request) (*adasense.Batch, error) {
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxJSONBytes)); err != nil {
		return nil, fmt.Errorf("decoding batch: %w", err)
	}
	if err := sc.decode(sc.body.Bytes()); err != nil {
		return nil, fmt.Errorf("decoding batch: %w", err)
	}
	cfg, err := adasense.ParseConfig(sc.bj.Config)
	if err != nil {
		return nil, err
	}
	bj := &sc.bj
	sc.batch = adasense.Batch{Config: cfg, StartAt: bj.StartAt, X: bj.X, Y: bj.Y, Z: bj.Z}
	return &sc.batch, nil
}

// decode fills sc.bj from body exactly as json.Unmarshal would.
func (sc *batchScratch) decode(body []byte) error {
	if sc.parse(body) {
		return nil
	}
	sc.bj = batchJSON{}
	return json.Unmarshal(body, &sc.bj)
}

// Key bits for parse's duplicate check.
const (
	keyConfig = 1 << iota
	keyStartAt
	keyX
	keyY
	keyZ
)

// parse decodes the canonical batch shape in one pass: one object
// holding, in any order and with any JSON whitespace, each of the exact
// keys "config", "start_at", "x", "y" and "z" at most once, where config
// is a printable-ASCII string with no escapes, start_at a JSON number,
// and each axis an array of JSON numbers; only whitespace may follow
// the object. parseNumber checks each number against the JSON grammar
// and converts it in the same pass, to the float64 strconv.ParseFloat
// returns, as encoding/json converts it. Anything else — escapes, null,
// other or case-folded keys, duplicates, nested values, out-of-range
// numbers, malformed input — reports false, leaving sc.bj for the
// caller to overwrite.
func (sc *batchScratch) parse(b []byte) bool {
	sc.bj = batchJSON{}
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	seen := 0
	for {
		key, j, ok := plainString(b, i)
		if !ok {
			return false
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		var bit int
		switch string(key) {
		case "config":
			bit = keyConfig
		case "start_at":
			bit = keyStartAt
		case "x":
			bit = keyX
		case "y":
			bit = keyY
		case "z":
			bit = keyZ
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		switch bit {
		case keyConfig:
			var cfg []byte
			if cfg, i, ok = plainString(b, i); !ok {
				return false
			}
			if string(cfg) != sc.config {
				sc.config = string(cfg)
			}
			sc.bj.Config = sc.config
		case keyStartAt:
			if sc.bj.StartAt, i, ok = parseNumber(b, i); !ok {
				return false
			}
		case keyX:
			if sc.x, i, ok = parseFloats(b, i, sc.x); !ok {
				return false
			}
			sc.bj.X = sc.x
		case keyY:
			if sc.y, i, ok = parseFloats(b, i, sc.y); !ok {
				return false
			}
			sc.bj.Y = sc.y
		case keyZ:
			if sc.z, i, ok = parseFloats(b, i, sc.z); !ok {
				return false
			}
			sc.bj.Z = sc.z
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return skipSpace(b, i+1) == len(b)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i (JSON whitespace: space, tab, newline, carriage return).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// plainString returns the contents of the string starting at b[i] and
// the index past its closing quote; ok is false unless the string is
// there and holds only printable ASCII without escapes, which decodes
// to exactly its bytes.
func plainString(b []byte, i int) (s []byte, end int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c == '\\' || c < 0x20 || c >= 0x7f:
			return nil, j, false
		}
	}
	return nil, len(b), false
}

// parseFloats decodes the array of numbers starting at b[i] into
// dst[:0], returning the values and the index past the closing bracket.
// An empty array decodes to an empty non-nil slice, as in encoding/json.
func parseFloats(b []byte, i int, dst []float64) (vals []float64, end int, ok bool) {
	dst = dst[:0]
	if dst == nil {
		dst = []float64{}
	}
	if i == len(b) || b[i] != '[' {
		return dst, i, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return dst, i + 1, true
	}
	for {
		var v float64
		if v, i, ok = parseNumber(b, i); !ok {
			return dst, i, false
		}
		dst = append(dst, v)
		i = skipSpace(b, i)
		if i == len(b) {
			return dst, i, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return dst, i + 1, true
		default:
			return dst, i, false
		}
	}
}

// parseNumber scans the JSON number starting at b[i] — checking the
// grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? on the way,
// since strconv.ParseFloat also accepts forms JSON does not (".5",
// "+1", "Inf", hex) — and converts it in the same pass. The scan keeps
// the decimal mantissa of up to 19 significant digits and its power of
// ten, which two exact conversions turn into the correctly rounded
// float64 that strconv.ParseFloat returns (Lemire, "Number Parsing at a
// Gigabyte per Second", 2021): Clinger's fast path for a mantissa of at
// most 2^53 times an exactly representable power of ten, and
// Eisel–Lemire otherwise. A number neither can decide — more than 19
// significant digits, a power of ten outside pow10Table, a subnormal,
// an overflow, a halfway case — goes to strconv.ParseFloat on the same
// bytes. ok is false for a malformed number or one out of float64
// range.
func parseNumber(b []byte, i int) (v float64, end int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd := 0 // significant digits in man, counted from the first nonzero one
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, man, nd = scanDigits(b, i, man, nd)
	default:
		return 0, i, false
	}
	exp10 := 0
	if i < len(b) && b[i] == '.' {
		if i+1 == len(b) || !isDigit(b[i+1]) {
			return 0, i, false
		}
		frac := i + 1
		i, man, nd = scanDigits(b, frac, man, nd)
		exp10 = frac - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		expNeg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return 0, i, false
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 { // far past any table; saturate instead of overflowing
				e = e*10 + int(b[i]-'0')
			}
		}
		if expNeg {
			e = -e
		}
		exp10 += e
	}
	if nd <= 19 {
		if man <= 1<<53 && -22 <= exp10 && exp10 <= 22 {
			// float64(man) and the power of ten are exact, so the one
			// rounding of the multiply or divide is the correct one.
			v = float64(man)
			if exp10 >= 0 {
				v *= float64Pow10[exp10]
			} else {
				v /= float64Pow10[-exp10]
			}
			if neg {
				v = -v
			}
			return v, i, true
		}
		if v, ok = eiselLemire64(man, exp10, neg); ok {
			return v, i, true
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	return v, i, err == nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanDigits consumes the digits from b[i] on, appending them to the
// mantissa man and counting in nd the significant ones, those from the
// first nonzero digit on. man holds the exact value only while nd ≤ 19.
func scanDigits(b []byte, i int, man uint64, nd int) (end int, _ uint64, _ int) {
	for ; i < len(b) && isDigit(b[i]); i++ {
		man = man*10 + uint64(b[i]-'0')
		if nd > 0 || b[i] != '0' {
			nd++
		}
	}
	return i, man, nd
}

// float64Pow10 holds the powers of ten a float64 represents exactly.
var float64Pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// The powers of ten pow10Table covers. Samples within ±8 g written with
// up to 17 significant digits need about 10^-20 to 10^2; the rest of
// the range is margin for other encoders.
const (
	minPow10 = -40
	maxPow10 = 40
)

// pow10Table[k-minPow10] is 10^k's 128-bit mantissa as {low, high}
// words: normalised so the top bit is set and rounded down, the layout
// of strconv's own Eisel–Lemire table. Its binary exponent is implied
// by 217706·k>>16, ⌊k·log2(10)⌋.
var pow10Table = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	ten := big.NewInt(10)
	for k := minPow10; k <= maxPow10; k++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(k, -k))), nil)
		m := new(big.Int)
		switch {
		case k < 0: // ⌊2^(127+bits(p)) / p⌋ has exactly 128 bits
			m.Quo(m.Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		case p.BitLen() <= 128:
			m.Lsh(p, uint(128-p.BitLen()))
		default:
			m.Rsh(p, uint(p.BitLen()-128))
		}
		t[k-minPow10] = [2]uint64{m.Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
	}
	return t
}()

// eiselLemire64 is Go's strconv.eiselLemire64 over pow10Table: it
// returns the correctly rounded float64 nearest to ±man·10^exp10, or ok
// false when it cannot decide the rounding from 128 bits (a halfway or
// near-halfway case), the result is subnormal or overflows, or exp10 is
// outside the table. See https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < minPow10 || maxPow10 < exp10 {
		return 0, false
	}
	// Normalise the mantissa.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiply by the high word; widen to all 128 bits only when the
	// high word leaves the result's low bits undecided.
	pow := &pow10Table[exp10-minPow10]
	xHi, xLo := bits.Mul64(man, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shift to 54 bits, refusing an exact halfway case, whose
	// round-half-even needs digits the product no longer has.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// Round from 54 to 53 bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 of 0 (or wrapped below it) is subnormal, 0x7FF or more is
	// Inf or NaN: both go to strconv.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// jsonContentType is the header value every writeReply shares, saving
// Header.Set's allocation; header values are only ever read or
// replaced, never written in place.
var jsonContentType = []string{"application/json"}

// writeReply writes an encoded 200 reply the way writeJSON does.
func writeReply(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// appendPushReply appends the bytes json.Encoder writes for
// newPushResponse(events, cfg), trailing newline included. Activity and
// config names are plain identifiers that JSON writes verbatim. ok is
// false for a non-finite confidence, which encoding/json refuses to
// encode; the caller then leaves the reply to writeJSON.
func appendPushReply(dst []byte, events []adasense.Event, cfg adasense.Config) (out []byte, ok bool) {
	dst = append(dst, `{"events":[`...)
	for i, ev := range events {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"activity":"`...)
		dst = append(dst, ev.Classification.Activity.String()...)
		dst = append(dst, `","confidence":`...)
		if dst, ok = appendJSONFloat(dst, ev.Classification.Confidence); !ok {
			return dst, false
		}
		dst = append(dst, `,"config":"`...)
		dst = ev.Config.AppendName(dst)
		dst = append(dst, `","config_changed":`...)
		dst = strconv.AppendBool(dst, ev.ConfigChanged)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"config":"`...)
	dst = cfg.AppendName(dst)
	return append(dst, "\"}\n"...), true
}

// appendClassifyReply is appendPushReply for a classification.
func appendClassifyReply(dst []byte, cls adasense.Classification) (out []byte, ok bool) {
	dst = append(dst, `{"activity":"`...)
	dst = append(dst, cls.Activity.String()...)
	dst = append(dst, `","confidence":`...)
	if dst, ok = appendJSONFloat(dst, cls.Confidence); !ok {
		return dst, false
	}
	return append(dst, "}\n"...), true
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up with a
// one-digit negative exponent's zero dropped (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// newPushResponse is the wire struct appendPushReply encodes.
func newPushResponse(events []adasense.Event, cfg adasense.Config) pushResponse {
	resp := pushResponse{Events: make([]eventJSON, len(events)), Config: cfg.Name()}
	for i, ev := range events {
		resp.Events[i] = eventJSON{
			Activity:      ev.Classification.Activity.String(),
			Confidence:    ev.Classification.Confidence,
			Config:        ev.Config.Name(),
			ConfigChanged: ev.ConfigChanged,
		}
	}
	return resp
}
