package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"adasense"
	"adasense/internal/synth"
)

// canonicalBody is a well-formed batch body in the shape clients send.
const canonicalBody = `{"config":"F100_A128","start_at":1.5,"x":[0.1,-2.25e-3,0],"y":[1,2,3],"z":[-0,4.5E+2,6]}`

// sameFloats reports whether a and b hold bit-identical values and are
// both nil or both non-nil.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeBatch holds the batch decoder to encoding/json: on any
// input it accepts exactly when json.Unmarshal accepts, with a
// bit-identical Config, StartAt and X/Y/Z. The scratch first decodes a
// canonical body, so state left over from an earlier request is
// exercised too. The committed corpus covers the canonical shape and
// every kind of input the single-pass parser hands to json.Unmarshal.
// A body that decodes then goes through pushDecoded, on a Service of an
// untrained network.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(canonicalBody))
	// Finite but far beyond any accelerometer: classified, these readings
	// give a NaN confidence, so the push must refuse them.
	f.Add([]byte(`{"config":"F100_A128","x":[1e300],"y":[-1e300],"z":[0]}`))
	svc, err := adasense.NewService(degradedSystem(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want batchJSON
		wantErr := json.Unmarshal(body, &want)

		sc := new(batchScratch)
		if err := sc.decode([]byte(canonicalBody)); err != nil {
			t.Fatalf("canonical body: %v", err)
		}
		gotErr := sc.decode(body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decode(%q) error = %v, json.Unmarshal error = %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		got := sc.bj
		if got.Config != want.Config || math.Float64bits(got.StartAt) != math.Float64bits(want.StartAt) ||
			!sameFloats(got.X, want.X) || !sameFloats(got.Y, want.Y) || !sameFloats(got.Z, want.Z) {
			t.Fatalf("decode(%q) = %+v, json.Unmarshal = %+v", body, got, want)
		}
		pushDecoded(t, svc, &got)
	})
}

// pushDecoded pushes bj's samples through a fresh session of svc, at the
// session's configuration, until at least 400 samples went in (two
// windows at 100 Hz). Every push must either fail with a *BatchError or
// emit only finite confidences.
func pushDecoded(t *testing.T, svc *adasense.Service, bj *batchJSON) {
	t.Helper()
	sess, err := svc.OpenSession("fuzz")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	reps := 1
	if n := len(bj.X); n > 0 && n < 400 {
		reps = (400 + n - 1) / n
	}
	for i := 0; i < reps; i++ {
		b := &adasense.Batch{Config: sess.Config(), StartAt: bj.StartAt, X: bj.X, Y: bj.Y, Z: bj.Z}
		events, err := sess.Push(b)
		var be *adasense.BatchError
		if errors.As(err, &be) {
			return
		}
		if err != nil {
			t.Fatalf("push of a decoded body: %v, want nil or a *BatchError", err)
		}
		for _, ev := range events {
			if c := ev.Classification.Confidence; math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("push emitted confidence %v", c)
			}
		}
	}
}

// TestParseBatchShapes pins which bodies take the single-pass parser
// and which go to json.Unmarshal, so the fuzz target's equivalence is
// not met by always falling back.
func TestParseBatchShapes(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{canonicalBody, true},
		{`{"config":"F100_A128","x":[1],"y":[2],"z":[3]}`, true},
		{" \t\r\n{ \"z\" : [ 3 ] , \"y\":[2],\"x\":[1],\"config\":\"F50_A16\" } \n", true},
		{`{"x":[],"y":[],"z":[]}`, true},
		{`{}`, true},
		{`{"start_at":-0,"x":[1e-400,123456789012345678901234567890]}`, true},
		{`{"config":"F100\u005fA128","x":[1]}`, false},
		{`{"config":"F100_A128","x":null}`, false},
		{`{"x":[1,null]}`, false},
		{`{"X":[1]}`, false},
		{`{"x":[1],"x":[2]}`, false},
		{`{"x":[1],"meta":{"a":[1]}}`, false},
		{`{"x":[1e400]}`, false},
		{`{"x":[01]}`, false},
		{`{"x":[.5]}`, false},
		{`{"x":[+1]}`, false},
		{`{"x":[1.]}`, false},
		{`{"x":[1e]}`, false},
		{`{"x":[Infinity]}`, false},
		{`{"config":"caf` + "\xc3\xa9" + `"}`, false},
		{`{"x":[1]}garbage`, false},
		{`{"x":[1]}{"x":[1]}`, false},
		{`{"x":[1],}`, false},
		{`{"x":[1]`, false},
		{``, false},
	} {
		sc := new(batchScratch)
		if got := sc.parse([]byte(tc.body)); got != tc.fast {
			t.Errorf("parse(%q) = %v, want %v", tc.body, got, tc.fast)
		}
	}
}

// TestParseNumberExact holds parseNumber to strconv.ParseFloat bit for
// bit, in acceptance and in the index it stops at: on every ADC level
// of the default ±8 g 16-bit sensor as json.Marshal writes it, on the
// boundaries of each conversion path, and on random numbers in every
// float format and digit count.
func TestParseNumberExact(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := strconv.ParseFloat(s, 64)
		got, end, ok := parseNumber([]byte(s), 0)
		if ok != (err == nil) || end != len(s) || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseNumber(%q) = %v (%#x), end %d, ok %v; strconv.ParseFloat = %v (%#x), %v",
				s, got, math.Float64bits(got), end, ok, want, math.Float64bits(want), err)
		}
	}

	noise := adasense.DefaultNoiseModel()
	lsb := 2 * noise.FullScaleG * synth.Gravity / float64(uint64(1)<<noise.Bits)
	levels := int(math.Round(noise.FullScaleG * synth.Gravity / lsb))
	for k := -levels; k <= levels; k++ {
		raw, err := json.Marshal(float64(k) * lsb)
		if err != nil {
			t.Fatal(err)
		}
		check(string(raw))
	}

	for _, s := range []string{
		"0", "-0", "-0.0", "0.000", "0e400", "-0e-400", "1", "-1", "0.5", "-2.25e-3",
		// Clinger's bounds: a mantissa of at most 2^53, a power of ten
		// of at most 22 either way.
		"9007199254740992", "9007199254740992e22", "-9007199254740992e-22",
		"1e22", "1e-22", "1e23", "1e-23", "9007199254740994e1",
		// Eisel–Lemire, including a 17-digit reading and a halfway case
		// it must hand to strconv.
		"78.453199999999995", "-0.0023941040039062", "9007199254740993",
		"9007199254740995", "1.0000000000000002", "123456789012345678e-40",
		// 19 significant digits decide here; more go to strconv.
		"1234567890123456789", "9999999999999999999", "12345678901234567890",
		"92233720368547758080", "18446744073709551616", "0.10000000000000000555",
		"100000000000000000000", "1.00000000000000000000000001",
		// Outside the table, subnormal, at and past the float64 range.
		"1e-41", "1e41", "1e-45", "1e45", "1e-400", "4.9e-324", "5e-324",
		"2.2250738585072011e-308", "1.7976931348623157e308", "1.7976931348623159e308",
		"1e309", "-1e309", "1e99999999999", "1e-99999999999", "0.0e99999999",
		"0.0000000000000000000000000000000000000000000000000001",
	} {
		check(s)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			for _, format := range []byte{'f', 'e', 'g'} {
				check(strconv.FormatFloat(f, format, -1, 64))
				check(strconv.FormatFloat(f, format, rng.Intn(24), 64))
			}
		}
		// Mantissas just past Clinger's bound, where rounding the
		// mantissa first would round twice.
		man := 1<<53 + rng.Uint64()%(1<<53)
		check(strconv.FormatUint(man, 10) + "e" + strconv.Itoa(rng.Intn(45)-22))
		// Any digit count, point and exponent.
		digits := strconv.FormatUint(rng.Uint64(), 10) + strconv.FormatUint(rng.Uint64(), 10)
		digits = digits[:1+rng.Intn(len(digits))]
		if p := rng.Intn(len(digits) + 1); p > 0 && p < len(digits) {
			digits = digits[:p] + "." + digits[p:]
		}
		check(digits + "e" + strconv.Itoa(rng.Intn(101)-50))
	}

	// The halfway case reaches strconv because Eisel–Lemire refuses it,
	// not because an earlier path happens to skip it.
	if _, ok := eiselLemire64(9007199254740993, 0, false); ok {
		t.Fatal("eiselLemire64 decided the halfway case 2^53+1")
	}
	if _, ok := eiselLemire64(78453199999999995, -15, false); !ok {
		t.Fatal("eiselLemire64 refused a 17-digit reading")
	}
}

// TestJSONBodyTrailingData: a JSON body is exactly one value — bytes
// after it answer 400 on every route that decodes a JSON body, where a
// streaming decoder used to stop at the first value and answer 200.
func TestJSONBodyTrailingData(t *testing.T) {
	h, fed := newBodyTestServers(t)
	valid := jsonBody(t, wireBatch(t, 2))
	stage := jsonBody(t, adasense.RolloutTransition{Action: "promote", ToStage: 1})
	for _, route := range []struct {
		name, path string
		srv        *server
		body       []byte
	}{
		{"push", "/v1/sessions/body-dev/push", h, valid},
		{"classify", "/v1/classify", h, valid},
		{"rollout stage", "/v1/rollout/stage", fed, stage},
	} {
		for _, tail := range []string{"garbage", `{"x":[1]}`} {
			body := append(append([]byte(nil), route.body...), tail...)
			if code := serveBody(route.srv, route.path, body); code != http.StatusBadRequest {
				t.Errorf("%s with %q appended = %d, want 400", route.name, tail, code)
			}
		}
	}
}

// TestJSONBodyTooLarge: a JSON body past maxJSONBytes answers 413 on
// every route that reads one, as an oversized model upload does.
func TestJSONBodyTooLarge(t *testing.T) {
	h, fed := newBodyTestServers(t)
	big := bytes.Repeat([]byte(" "), maxJSONBytes+1)
	for _, route := range []struct {
		name, path string
		srv        *server
	}{
		{"open", "/v1/sessions", h},
		{"push", "/v1/sessions/body-dev/push", h},
		{"classify", "/v1/classify", h},
		{"rollout stage", "/v1/rollout/stage", fed},
	} {
		if code := serveBody(route.srv, route.path, big); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body = %d, want 413", route.name, len(big), code)
		}
	}
}

// newBodyTestServers returns a standalone server with device
// "body-dev" open, and a federated one that takes stage transitions
// from its peer "gw-b".
func newBodyTestServers(t *testing.T) (standalone, federated *server) {
	t.Helper()
	gw, err := adasense.NewGateway(quickSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Open("body-dev"); err != nil {
		t.Fatal(err)
	}
	gw2, err := adasense.NewGateway(quickSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := adasense.NewCluster(gw2, "gw-a", []adasense.Replica{
		{ID: "gw-a", URL: "http://127.0.0.1:1"}, {ID: "gw-b", URL: "http://127.0.0.1:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	standalone, federated = newServer(gw, nil), newServer(gw2, cluster)
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	standalone.log, federated.log = quiet, quiet
	return standalone, federated
}

// serveBody POSTs body to path on s as peer "gw-b" and returns the
// status.
func serveBody(s *server, path string, body []byte) int {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set(adasense.ReplicatedHeader, "gw-b")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code
}

// TestReplyEncodingMatchesEncodingJSON: the append encoders write the
// bytes json.Encoder writes for the wire structs, for every activity ×
// Pareto-state config × config_changed and a spread of confidences
// covering both float formats and their boundaries.
func TestReplyEncodingMatchesEncodingJSON(t *testing.T) {
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// The encoders write names verbatim between quotes.
	var names []string
	for a := 0; a < adasense.NumActivities; a++ {
		names = append(names, adasense.Activity(a).String())
	}
	for _, cfg := range adasense.ParetoStates() {
		names = append(names, cfg.Name())
	}
	for _, name := range names {
		if got := strings.TrimSuffix(string(encode(name)), "\n"); got != `"`+name+`"` {
			t.Fatalf("name %q encodes as %s: the append encoders would need escaping", name, got)
		}
	}

	confs := []float64{0, 1, 0.5, 1e-7, 5e-324, math.Nextafter(1, 0), 1e-6, math.Nextafter(1e-6, 0), 1e20, 1e21, 123456.789}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		confs = append(confs, rng.Float64(), math.Float64frombits(rng.Uint64()&^(0x7ff<<52)|(uint64(rng.Intn(1100))<<52)))
	}
	var events []adasense.Event
	for a := 0; a < adasense.NumActivities; a++ {
		for _, cfg := range adasense.ParetoStates() {
			for _, changed := range []bool{false, true} {
				events = append(events, adasense.Event{
					Classification: adasense.Classification{Activity: adasense.Activity(a), Confidence: confs[len(events)%len(confs)]},
					Config:         cfg,
					ConfigChanged:  changed,
				})
			}
		}
	}
	cfg := adasense.ParetoStates()[0]
	for i, conf := range confs {
		cls := adasense.Classification{Activity: adasense.Activity(i % adasense.NumActivities), Confidence: conf}
		got, ok := appendClassifyReply(nil, cls)
		want := encode(classifyResponse{Activity: cls.Activity.String(), Confidence: cls.Confidence})
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("classify reply for confidence %v:\n got %q\nwant %q", conf, got, want)
		}
		ev := events[i%len(events)]
		ev.Classification.Confidence = conf
		one := []adasense.Event{ev}
		got, ok = appendPushReply(nil, one, cfg)
		if want := encode(newPushResponse(one, cfg)); !ok || !bytes.Equal(got, want) {
			t.Fatalf("push reply for %+v:\n got %q\nwant %q", ev, got, want)
		}
	}
	for _, evs := range [][]adasense.Event{nil, events} {
		got, ok := appendPushReply(nil, evs, cfg)
		if want := encode(newPushResponse(evs, cfg)); !ok || !bytes.Equal(got, want) {
			t.Fatalf("push reply for %d events:\n got %q\nwant %q", len(evs), got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendJSONFloat(nil, bad); ok {
			t.Fatalf("appendJSONFloat(%v) succeeded; encoding/json refuses it", bad)
		}
	}
}

// maxPushAllocs caps the allocations of one warm push through
// handlePush, as measured: 7 in httptest.ResponseRecorder, 1 for the
// reply's header entry and 1 for the body's http.MaxBytesReader.
// Decoding the batch, pushing it (the events append into the scratch's
// reused buffer), classifying the window and encoding the reply
// allocate nothing.
const maxPushAllocs = 9

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestHandlePushAllocs pins the JSON door's per-push allocations.
func TestHandlePushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds allocate more and drop sync.Pool items at random")
	}
	gw, err := adasense.NewGateway(quickSystem(t),
		adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
			return adasense.NewBaselineController()
		})))
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(gw, nil)
	if _, err := gw.Open("alloc-dev"); err != nil {
		t.Fatal(err)
	}
	b := streamBatch(t)
	body := jsonBody(t, batchJSON{Config: b.Config.Name(), StartAt: b.StartAt, X: b.X, Y: b.Y, Z: b.Z})
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/alloc-dev/push", nil)
	req.SetPathValue("id", "alloc-dev")
	req.Body = io.NopCloser(rd)
	push := func() {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.handlePush(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("push = %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 8; i++ { // fill the window and the scratch pool
		push()
	}
	if got := testing.AllocsPerRun(200, push); got > maxPushAllocs {
		t.Fatalf("warm HTTP push = %v allocs, want <= %d", got, maxPushAllocs)
	}
}

// BenchmarkDecodeBatch times the JSON door's batch decode alone on 2 s
// batches as perfbench's http_fleet sends them: sampled by the default
// sensor model and written by json.Marshal, at the richest and the
// leanest Pareto configuration.
func BenchmarkDecodeBatch(b *testing.B) {
	sched, err := adasense.NewSchedule([]adasense.Segment{{Activity: adasense.Walk, Duration: 30}})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"F100_A128", "F12.5_A8"} {
		cfg, err := adasense.ParseConfig(name)
		if err != nil {
			b.Fatal(err)
		}
		batch := adasense.NewSampler(adasense.DefaultNoiseModel(), 35).Sample(adasense.NewMotion(sched, 36), cfg, 0, 2)
		body := jsonBody(b, batchJSON{Config: batch.Config.Name(), StartAt: batch.StartAt, X: batch.X, Y: batch.Y, Z: batch.Z})
		b.Run(name, func(b *testing.B) {
			sc := new(batchScratch)
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if err := sc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*3*batch.Len()), "ns/sample")
		})
	}
}
