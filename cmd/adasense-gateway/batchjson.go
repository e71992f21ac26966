package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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
	x, y, z []float64 // sample storage the parser reuses
	config  string    // last config name parsed, reused while it repeats
	out     []byte    // reply encoding
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getBatchScratch takes a scratch from the pool. Its buffers back the
// batch handed to GatewaySession.Push or Gateway.Classify and the reply
// written after it, so the handler must putBatchScratch only once the
// synchronous call has returned and the reply is written: neither
// retains the batch's sample slices past the call, and a
// ResponseWriter does not retain what it is given to Write.
func getBatchScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

func putBatchScratch(sc *batchScratch) {
	if sc.body.Cap() <= maxPooledBody {
		batchScratchPool.Put(sc)
	}
}

// readBatch reads the size-capped request body and decodes it into a
// batch backed by sc.
func (sc *batchScratch) readBatch(w http.ResponseWriter, r *http.Request) (*adasense.Batch, error) {
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxJSONBytes)); err != nil {
		return nil, fmt.Errorf("decoding batch: %w", err)
	}
	if err := sc.decode(sc.body.Bytes()); err != nil {
		return nil, fmt.Errorf("decoding batch: %w", err)
	}
	if err := sc.bj.toBatch(&sc.batch); err != nil {
		return nil, err
	}
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
// the object. Numbers are checked against the JSON grammar as they are
// scanned and converted by strconv.ParseFloat, as encoding/json converts
// them. Anything else — escapes, null, other or case-folded keys,
// duplicates, nested values, out-of-range numbers, malformed input —
// reports false, leaving sc.bj for the caller to overwrite.
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
// "+1", "Inf", hex) — and converts it. ok is false for a malformed
// number or one out of float64 range.
func parseNumber(b []byte, i int) (v float64, end int, ok bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		if i+1 == len(b) || !isDigit(b[i+1]) {
			return 0, i, false
		}
		i = skipDigits(b, i+2)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return 0, i, false
		}
		i = skipDigits(b, i+1)
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	return v, i, err == nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
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
