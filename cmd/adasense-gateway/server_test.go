package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adasense"
)

var (
	sysOnce sync.Once
	sysInst *adasense.System
	sysErr  error
)

// quickSystem trains one small shared classifier for every server test.
func quickSystem(t testing.TB) *adasense.System {
	t.Helper()
	sysOnce.Do(func() {
		sysInst, _, sysErr = adasense.TrainSystem(adasense.TrainingConfig{
			Windows: 900, Epochs: 15, Seed: 42,
		})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst
}

// newTestServer starts a real HTTP server over a fleet pinned at the top
// configuration (so one pre-sampled batch stays valid forever).
func newTestServer(t *testing.T, opts ...adasense.GatewayOption) (*httptest.Server, *adasense.Gateway) {
	t.Helper()
	opts = append([]adasense.GatewayOption{
		adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
			return adasense.NewBaselineController()
		})),
	}, opts...)
	gw, err := adasense.NewGateway(quickSystem(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(gw, nil))
	t.Cleanup(ts.Close)
	return ts, gw
}

// wireBatch samples secs seconds of walking at the top configuration and
// returns it in the wire format.
func wireBatch(t *testing.T, secs float64) batchJSON {
	t.Helper()
	sched, err := adasense.NewSchedule([]adasense.Segment{{Activity: adasense.Walk, Duration: 30}})
	if err != nil {
		t.Fatal(err)
	}
	m := adasense.NewMotion(sched, 31)
	b := adasense.NewSampler(adasense.DefaultNoiseModel(), 32).
		Sample(m, adasense.ParetoStates()[0], 0, secs)
	return batchJSON{Config: b.Config.Name(), X: b.X, Y: b.Y, Z: b.Z}
}

// scrapeMetrics GETs /metrics, validates the Prometheus text exposition
// shape (every sample preceded by its # HELP and # TYPE lines), and
// returns the samples by series name.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	var lastHelp, lastType string
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			lastHelp = strings.Fields(line)[2]
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			lastType = f[2]
			if f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram" {
				t.Fatalf("bad TYPE line %q", line)
			}
		default:
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("bad sample line %q", line)
			}
			// Histogram samples carry a family suffix, and labeled series
			// carry a {..} block; both belong to the family of the
			// preceding HELP/TYPE pair.
			base, _, _ := strings.Cut(name, "{")
			family := base
			if suffix := strings.TrimPrefix(base, lastHelp); lastHelp != "" &&
				(suffix == "_bucket" || suffix == "_sum" || suffix == "_count") {
				family = lastHelp
			}
			if family != lastHelp || family != lastType {
				t.Fatalf("sample %q not preceded by its HELP/TYPE lines (saw %q/%q)", name, lastHelp, lastType)
			}
			var v float64
			if _, err := fmt.Sscanf(val, "%g", &v); err != nil {
				t.Fatalf("bad sample value %q: %v", line, err)
			}
			samples[base] = v
		}
	}
	return samples
}

// do runs one JSON request and decodes the response into out (unless nil).
func do(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestServerEndToEnd drives the full serving surface over the wire:
// health, open, lookup, push, metrics, hot-swap, migrate, classify,
// close.
func TestServerEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL

	// Liveness.
	var health struct {
		Status string `json:"status"`
	}
	if code := do(t, "GET", base+"/healthz", nil, &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, health)
	}

	// Open a session; the device must start at the top configuration.
	var sess sessionJSON
	if code := do(t, "POST", base+"/v1/sessions", map[string]string{"id": "dev-1"}, &sess); code != 201 {
		t.Fatalf("open = %d", code)
	}
	if sess.ID != "dev-1" || sess.Config != "F100_A128" {
		t.Fatalf("open session = %+v", sess)
	}
	if code := do(t, "POST", base+"/v1/sessions", map[string]string{"id": "dev-1"}, nil); code != 409 {
		t.Fatalf("duplicate open = %d, want 409", code)
	}
	if code := do(t, "GET", base+"/v1/sessions/dev-1", nil, &sess); code != 200 || sess.ID != "dev-1" {
		t.Fatalf("get session = %d %+v", code, sess)
	}
	if code := do(t, "GET", base+"/v1/sessions/ghost", nil, nil); code != 404 {
		t.Fatalf("get unknown session = %d, want 404", code)
	}

	// Push two seconds of walking: one full window, at least one event.
	var pushed pushResponse
	if code := do(t, "POST", base+"/v1/sessions/dev-1/push", wireBatch(t, 2), &pushed); code != 200 {
		t.Fatalf("push = %d", code)
	}
	if len(pushed.Events) == 0 || pushed.Config == "" {
		t.Fatalf("push response = %+v", pushed)
	}
	for _, ev := range pushed.Events {
		if _, err := adasense.ParseActivity(ev.Activity); err != nil {
			t.Fatalf("push event has bad activity: %+v", ev)
		}
		if ev.Confidence <= 0 || ev.Confidence > 1 {
			t.Fatalf("push event confidence out of range: %+v", ev)
		}
	}

	// Push error paths: malformed JSON, bad config label, unknown id.
	if code := do(t, "POST", base+"/v1/sessions/dev-1/push", []byte("{nope"), nil); code != 400 {
		t.Fatalf("malformed push = %d, want 400", code)
	}
	bad := wireBatch(t, 1)
	bad.Config = "F9000_A1"
	if code := do(t, "POST", base+"/v1/sessions/dev-1/push", bad, nil); code != 400 {
		t.Fatalf("bad-config push = %d, want 400", code)
	}
	if code := do(t, "POST", base+"/v1/sessions/ghost/push", wireBatch(t, 1), nil); code != 404 {
		t.Fatalf("push to unknown session = %d, want 404", code)
	}

	// One-shot classification.
	var cls classifyResponse
	if code := do(t, "POST", base+"/v1/classify", wireBatch(t, 2), &cls); code != 200 {
		t.Fatalf("classify = %d", code)
	}
	if _, err := adasense.ParseActivity(cls.Activity); err != nil {
		t.Fatalf("classify activity %q: %v", cls.Activity, err)
	}

	// Hot-swap: upload a retrained model; live session must survive.
	var buf bytes.Buffer
	retrained, _, err := adasense.TrainSystem(adasense.TrainingConfig{Windows: 600, Epochs: 8, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if err := retrained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var swap struct {
		ModelSwaps uint64 `json:"model_swaps"`
	}
	if code := do(t, "POST", base+"/v1/model", buf.Bytes(), &swap); code != 200 || swap.ModelSwaps != 1 {
		t.Fatalf("model upload = %d %+v", code, swap)
	}
	if code := do(t, "POST", base+"/v1/model", []byte("garbage"), nil); code != 400 {
		t.Fatalf("garbage model upload = %d, want 400", code)
	}
	if code := do(t, "POST", base+"/v1/sessions/dev-1/push", wireBatch(t, 1), &pushed); code != 200 {
		t.Fatalf("push after swap = %d; live session dropped by hot-swap", code)
	}
	if code := do(t, "POST", base+"/v1/sessions/dev-1/migrate", nil, &sess); code != 200 {
		t.Fatalf("migrate = %d", code)
	}
	if code := do(t, "POST", base+"/v1/sessions/dev-1/push", wireBatch(t, 1), &pushed); code != 200 {
		t.Fatalf("push after migrate = %d", code)
	}

	// Metrics (Prometheus text format) reflect everything above.
	m := scrapeMetrics(t, base)
	if m["adasense_sessions_live"] != 1 || m["adasense_sessions_opened_total"] != 1 {
		t.Fatalf("metrics sessions = %v", m)
	}
	if m["adasense_batches_pushed_total"] != 3 || m["adasense_events_emitted_total"] == 0 {
		t.Fatalf("metrics data path = %v", m)
	}
	if m["adasense_model_swaps_total"] != 1 || m["adasense_classify_calls_total"] != 1 {
		t.Fatalf("metrics swap/classify = %v", m)
	}
	if m["adasense_draining"] != 0 || m["adasense_session_capacity"] != 0 {
		t.Fatalf("metrics gauges = %v", m)
	}

	// Close: 204, then the id is gone.
	if code := do(t, "DELETE", base+"/v1/sessions/dev-1", nil, nil); code != 204 {
		t.Fatalf("close = %d", code)
	}
	if code := do(t, "DELETE", base+"/v1/sessions/dev-1", nil, nil); code != 404 {
		t.Fatalf("double close = %d, want 404", code)
	}
	if m := scrapeMetrics(t, base); m["adasense_sessions_live"] != 0 {
		t.Fatalf("metrics after close = %v", m)
	}
}

// TestServerCapacityAndEviction exercises the fleet-policy knobs over the
// wire: the max-sessions cap maps to 429, and idle sessions reaped by the
// sweeper answer 404/410 afterwards.
func TestServerCapacityAndEviction(t *testing.T) {
	clock := struct {
		sync.Mutex
		now time.Time
	}{now: time.Unix(9000, 0)}
	ts, gw := newTestServer(t,
		adasense.WithMaxSessions(2),
		adasense.WithIdleTTL(time.Minute),
		adasense.WithGatewayClock(func() time.Time {
			clock.Lock()
			defer clock.Unlock()
			return clock.now
		}),
	)
	base := ts.URL

	for _, id := range []string{"a", "b"} {
		if code := do(t, "POST", base+"/v1/sessions", map[string]string{"id": id}, nil); code != 201 {
			t.Fatalf("open %s = %d", id, code)
		}
	}
	if code := do(t, "POST", base+"/v1/sessions", map[string]string{"id": "c"}, nil); code != 429 {
		t.Fatalf("over-capacity open = %d, want 429", code)
	}

	// Make "a" stale while "b" stays fresh, then sweep.
	clock.Lock()
	clock.now = clock.now.Add(time.Minute)
	clock.Unlock()
	if code := do(t, "POST", base+"/v1/sessions/b/push", wireBatch(t, 1), nil); code != 200 {
		t.Fatalf("push b = %d", code)
	}
	evicted := gw.EvictIdle()
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("EvictIdle = %v, want [a]", evicted)
	}
	if code := do(t, "GET", base+"/v1/sessions/a", nil, nil); code != 404 {
		t.Fatalf("get evicted session = %d, want 404", code)
	}
	// The freed slot is reusable over the wire.
	if code := do(t, "POST", base+"/v1/sessions", map[string]string{"id": "c"}, nil); code != 201 {
		t.Fatalf("open after eviction = %d, want 201", code)
	}
	m := scrapeMetrics(t, base)
	if m["adasense_sessions_evicted_total"] != 1 || m["adasense_sessions_live"] != 2 {
		t.Fatalf("metrics after eviction = %v", m)
	}
	if m["adasense_session_capacity"] != 2 {
		t.Fatalf("capacity gauge = %v", m["adasense_session_capacity"])
	}
	if rate := m["adasense_pool_hit_rate"]; rate < 0 || rate > 1 {
		t.Fatalf("pool hit rate out of range: %v", rate)
	}
}

// doTok is do with a bearer token attached.
func doTok(t *testing.T, method, url, token string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestServerAuth locks the gateway behind a bearer token: every /v1/*
// route answers 401 without it, /metrics and /healthz stay open, and
// the rejects are counted.
func TestServerAuth(t *testing.T) {
	ts, _ := newTestServer(t, adasense.WithAuth("s3cret"))
	base := ts.URL

	open := map[string]string{"id": "dev-1"}
	if code := do(t, "POST", base+"/v1/sessions", open, nil); code != 401 {
		t.Fatalf("tokenless open = %d, want 401", code)
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(`{"id":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := resp.Header.Get("WWW-Authenticate"); !strings.HasPrefix(h, "Bearer") {
		t.Fatalf("WWW-Authenticate = %q", h)
	}
	if code := doTok(t, "POST", base+"/v1/sessions", "Bearer wrong", open, nil); code != 401 {
		t.Fatalf("wrong-token open = %d, want 401", code)
	}
	// The token must arrive under the Bearer scheme.
	if code := doTok(t, "POST", base+"/v1/sessions", "s3cret", open, nil); code != 401 {
		t.Fatalf("schemeless token open = %d, want 401", code)
	}
	for _, route := range []struct{ method, path string }{
		{"GET", "/v1/sessions/dev-1"},
		{"POST", "/v1/sessions/dev-1/push"},
		{"POST", "/v1/sessions/dev-1/migrate"},
		{"DELETE", "/v1/sessions/dev-1"},
		{"POST", "/v1/classify"},
		{"POST", "/v1/model"},
	} {
		if code := do(t, route.method, base+route.path, nil, nil); code != 401 {
			t.Fatalf("tokenless %s %s = %d, want 401", route.method, route.path, code)
		}
	}

	// The right token serves; the open endpoints never asked for one.
	var sess sessionJSON
	if code := doTok(t, "POST", base+"/v1/sessions", "Bearer s3cret", open, &sess); code != 201 || sess.ID != "dev-1" {
		t.Fatalf("authorized open = %d %+v", code, sess)
	}
	// The scheme compares case-insensitively (RFC 7235).
	if code := doTok(t, "GET", base+"/v1/sessions/dev-1", "bearer s3cret", nil, nil); code != 200 {
		t.Fatalf("lowercase-scheme get = %d, want 200", code)
	}
	if code := do(t, "GET", base+"/healthz", nil, nil); code != 200 {
		t.Fatalf("healthz behind auth = %d", code)
	}
	m := scrapeMetrics(t, base)
	if m["adasense_auth_rejects_total"] < 9 {
		t.Fatalf("auth rejects = %v, want >= 9", m["adasense_auth_rejects_total"])
	}
	if m["adasense_sessions_live"] != 1 {
		t.Fatalf("sessions live = %v", m["adasense_sessions_live"])
	}
}

// TestServerRateLimit floods one device on a fake clock: the burst is
// admitted, the flood gets 429, other devices and the refill keep
// working, and the rejects are counted.
func TestServerRateLimit(t *testing.T) {
	clock := struct {
		sync.Mutex
		now time.Time
	}{now: time.Unix(7000, 0)}
	ts, _ := newTestServer(t,
		adasense.WithGatewayClock(func() time.Time {
			clock.Lock()
			defer clock.Unlock()
			return clock.now
		}),
		adasense.WithRateLimit(adasense.RateLimit{DevicePerSec: 1, DeviceBurst: 3}),
	)
	base := ts.URL

	// Burst of 3: the open plus two pushes are admitted...
	if code := do(t, "POST", base+"/v1/sessions", map[string]string{"id": "dev-1"}, nil); code != 201 {
		t.Fatalf("open = %d", code)
	}
	for i := 0; i < 2; i++ {
		if code := do(t, "POST", base+"/v1/sessions/dev-1/push", wireBatch(t, 1), nil); code != 200 {
			t.Fatalf("burst push %d = %d", i, code)
		}
	}
	// ...then the flood is shed with 429.
	for i := 0; i < 3; i++ {
		if code := do(t, "POST", base+"/v1/sessions/dev-1/push", wireBatch(t, 1), nil); code != 429 {
			t.Fatalf("flood push %d = %d, want 429", i, code)
		}
	}

	// Another device is untouched, and a refilled token admits again.
	if code := do(t, "POST", base+"/v1/sessions", map[string]string{"id": "dev-2"}, nil); code != 201 {
		t.Fatalf("independent open = %d", code)
	}
	clock.Lock()
	clock.now = clock.now.Add(time.Second)
	clock.Unlock()
	if code := do(t, "POST", base+"/v1/sessions/dev-1/push", wireBatch(t, 1), nil); code != 200 {
		t.Fatalf("post-refill push = %d", code)
	}

	m := scrapeMetrics(t, base)
	if m["adasense_rate_limited_device_total"] != 3 {
		t.Fatalf("device rejects = %v, want 3", m["adasense_rate_limited_device_total"])
	}
}

// TestServerDrain closes the serving loop: a draining gateway refuses
// opens with 503, flips /healthz to 503 for load balancers, reports
// itself in /metrics, and leaves zero live sessions.
func TestServerDrain(t *testing.T) {
	ts, gw := newTestServer(t)
	base := ts.URL

	for _, id := range []string{"a", "b", "c"} {
		if code := do(t, "POST", base+"/v1/sessions", map[string]string{"id": id}, nil); code != 201 {
			t.Fatalf("open %s = %d", id, code)
		}
	}
	if err := gw.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := gw.NumSessions(); n != 0 {
		t.Fatalf("NumSessions after drain = %d", n)
	}
	if code := do(t, "POST", base+"/v1/sessions", map[string]string{"id": "late"}, nil); code != 503 {
		t.Fatalf("open while draining = %d, want 503", code)
	}
	if code := do(t, "GET", base+"/healthz", nil, nil); code != 503 {
		t.Fatalf("healthz while draining = %d, want 503", code)
	}
	if code := do(t, "POST", base+"/v1/sessions/a/push", wireBatch(t, 1), nil); code != 404 && code != 410 {
		t.Fatalf("push to drained session = %d, want 404/410", code)
	}
	m := scrapeMetrics(t, base)
	if m["adasense_draining"] != 1 || m["adasense_sessions_live"] != 0 {
		t.Fatalf("drain metrics = %v", m)
	}
	if m["adasense_sessions_closed_total"] != 3 {
		t.Fatalf("closed total = %v, want 3", m["adasense_sessions_closed_total"])
	}
}

// TestServerUnencodableReply: a classification with a NaN confidence
// cannot be carried by JSON. Samples cannot produce one — the batch
// check refuses ±1e300, whose squares would overflow the features, with
// 400 — but a model with a NaN bias does. Push and classify must then
// answer 500 with a JSON error body, not 200 with an empty one.
func TestServerUnencodableReply(t *testing.T) {
	huge := wireBatch(t, 2)
	for i := range huge.X {
		huge.X[i], huge.Y[i] = 1e300, -1e300
	}
	poisoned := *quickSystem(t)
	poisoned.Network = poisoned.Network.Clone()
	poisoned.Network.B2[0] = math.NaN()
	for _, tc := range []struct {
		name  string
		sys   *adasense.System
		batch batchJSON
		code  int
		msg   string
	}{
		{"±1e300 samples", quickSystem(t), huge, http.StatusBadRequest, "invalid batch"},
		{"a NaN-biased model", &poisoned, wireBatch(t, 2), http.StatusInternalServerError, "NaN"},
	} {
		gw, err := adasense.NewGateway(tc.sys, adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
			return adasense.NewBaselineController()
		})))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(newServer(gw, nil))
		if code := do(t, "POST", ts.URL+"/v1/sessions", map[string]string{"id": "huge"}, nil); code != http.StatusCreated {
			t.Fatalf("open = %d", code)
		}
		for _, path := range []string{"/v1/sessions/huge/push", "/v1/classify"} {
			var e errorJSON
			if code := do(t, "POST", ts.URL+path, tc.batch, &e); code != tc.code || !strings.Contains(e.Error, tc.msg) {
				t.Errorf("%s: POST %s = %d %+v, want %d with an error naming %q", tc.name, path, code, e, tc.code, tc.msg)
			}
		}
		ts.Close()
	}
}
