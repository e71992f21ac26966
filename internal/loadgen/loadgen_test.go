package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubGateway implements just enough of the gateway wire protocol to
// exercise the driver without a trained model: open/get/push with
// configurable config steering and fault injection.
type stubGateway struct {
	mu       sync.Mutex
	sessions map[string]string // device id -> config name
	directed string            // config name pushed back to devices ("" = keep)
	pushes   int
	// inject, when set, may return a non-zero status to force as the
	// response for a push (called with the running push count).
	inject func(n int) int
}

func newStubGateway() *stubGateway {
	return &stubGateway{sessions: make(map[string]string)}
}

func (g *stubGateway) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req sessionJSON
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.ID == "" {
			http.Error(w, `{"error":"bad open"}`, http.StatusBadRequest)
			return
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		if _, ok := g.sessions[req.ID]; ok {
			http.Error(w, `{"error":"exists"}`, http.StatusConflict)
			return
		}
		g.sessions[req.ID] = "F100_A128"
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(sessionJSON{ID: req.ID, Config: g.sessions[req.ID]})
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		defer g.mu.Unlock()
		cfg, ok := g.sessions[r.PathValue("id")]
		if !ok {
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(sessionJSON{ID: r.PathValue("id"), Config: cfg})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/push", func(w http.ResponseWriter, r *http.Request) {
		var b batchJSON
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			http.Error(w, `{"error":"bad batch"}`, http.StatusBadRequest)
			return
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		g.pushes++
		if g.inject != nil {
			if st := g.inject(g.pushes); st != 0 {
				http.Error(w, `{"error":"injected"}`, st)
				return
			}
		}
		id := r.PathValue("id")
		cfg, ok := g.sessions[id]
		if !ok {
			http.Error(w, `{"error":"gone"}`, http.StatusGone)
			return
		}
		if b.Config != cfg {
			http.Error(w, `{"error":"config mismatch"}`, http.StatusConflict)
			return
		}
		if g.directed != "" {
			g.sessions[id] = g.directed
		}
		json.NewEncoder(w).Encode(map[string]any{"events": []any{}, "config": g.sessions[id]})
	})
	return mux
}

// drop forgets every session, simulating eviction or a rebalance that
// moved ownership: the next push draws 410 and must re-open.
func (g *stubGateway) drop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sessions = make(map[string]string)
}

func testConfig(target string) Config {
	return Config{
		Targets:    []string{target},
		Devices:    12,
		BatchSec:   2,
		HorizonSec: 300,
		Seed:       42,
		Phases:     []Phase{{Rate: 300, Events: 120}},
		Workers:    32,
		OpenFirst:  true,
	}
}

// TestRunAgainstStub drives the full driver loop against the stub and
// checks the report contract end to end, including the adaptive-config
// downlink: the stub steers every device to F50_A64 and the fleet must
// follow.
func TestRunAgainstStub(t *testing.T) {
	g := newStubGateway()
	g.directed = "F50_A64"
	srv := httptest.NewServer(g.handler())
	defer srv.Close()

	var phases []int
	cfg := testConfig(srv.URL)
	cfg.Phases = []Phase{{Rate: 300, Events: 60}, {Rate: 300, Events: 60}}
	// A worker per event of a phase: a phase waits for its pushes before
	// the next starts, so no burst of late timers can find every worker
	// busy and shed, however the host schedules the run.
	cfg.Workers = 60
	cfg.OnPhase = func(i int) { phases = append(phases, i) }
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(phases, []int{0, 1}) {
		t.Fatalf("OnPhase calls = %v, want [0 1]", phases)
	}
	if rep.Totals.Offered != 120 {
		t.Fatalf("offered = %d, want 120", rep.Totals.Offered)
	}
	if rep.Totals.Lost != 0 || rep.Totals.Shed != 0 {
		t.Fatalf("lost=%d shed=%d, want 0/0", rep.Totals.Lost, rep.Totals.Shed)
	}
	if rep.Totals.PushOK != 120 {
		t.Fatalf("push_2xx = %d, want 120", rep.Totals.PushOK)
	}
	if rep.Routes["push"].Count != 120 || rep.Routes["open"].Count == 0 {
		t.Fatalf("route counts: %+v", rep.Routes)
	}
	if rep.Phases[0].AchievedRate <= 0 {
		t.Fatalf("achieved rate = %v, want > 0", rep.Phases[0].AchievedRate)
	}
	for _, d := range r.devices {
		if d.cfg.Name() != "F50_A64" {
			t.Fatalf("device %s config = %s, want steered F50_A64", d.id, d.cfg.Name())
		}
	}
	if data, err := json.Marshal(rep); err != nil || !strings.Contains(string(data), `"p99_s"`) {
		t.Fatalf("report JSON marshal: err=%v json=%.80s", err, data)
	}
}

// TestRetryRidesOutSessionLoss drops every session mid-run; with
// retries enabled the driver must re-open and lose nothing.
func TestRetryRidesOutSessionLoss(t *testing.T) {
	g := newStubGateway()
	srv := httptest.NewServer(g.handler())
	defer srv.Close()

	cfg := testConfig(srv.URL)
	cfg.MaxAttempts = 4
	cfg.Phases = []Phase{{Rate: 300, Events: 60}, {Rate: 300, Events: 60}}
	cfg.OnPhase = func(i int) {
		if i == 1 {
			g.drop()
		}
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Lost != 0 {
		t.Fatalf("lost = %d, want 0 (retries should ride out the drop)", rep.Totals.Lost)
	}
	if rep.Totals.Reopens == 0 || rep.Totals.Status4xx == 0 {
		t.Fatalf("reopens=%d status4xx=%d, want both > 0 after session drop", rep.Totals.Reopens, rep.Totals.Status4xx)
	}
}

// TestLostAndErrorAccounting injects hard 500s with retries disabled:
// every failed push must be counted lost, and the accounting invariant
// must still hold.
func TestLostAndErrorAccounting(t *testing.T) {
	g := newStubGateway()
	g.inject = func(n int) int {
		if n%4 == 0 {
			return http.StatusInternalServerError
		}
		return 0
	}
	srv := httptest.NewServer(g.handler())
	defer srv.Close()

	cfg := testConfig(srv.URL)
	cfg.MaxAttempts = 1
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Status5xx == 0 || rep.Totals.Lost == 0 {
		t.Fatalf("status5xx=%d lost=%d, want both > 0", rep.Totals.Status5xx, rep.Totals.Lost)
	}
	if rep.Totals.Lost != rep.Totals.Status5xx {
		t.Fatalf("lost=%d != status5xx=%d with retries off", rep.Totals.Lost, rep.Totals.Status5xx)
	}
}

// TestRunCancellation cancels mid-phase: Run must return promptly with
// the context error and a still-consistent partial report.
func TestRunCancellation(t *testing.T) {
	g := newStubGateway()
	srv := httptest.NewServer(g.handler())
	defer srv.Close()

	cfg := testConfig(srv.URL)
	cfg.Phases = []Phase{{Rate: 10, Duration: time.Hour}}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	var rep *Report
	go func() {
		rep, err = r.Run(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if err == nil {
		t.Fatal("Run returned nil error after cancellation")
	}
	c := rep.Phases[0].Counts
	if c.Shed+c.PushOK+c.Lost != c.Offered {
		t.Fatalf("partial report accounting broken: %+v", c)
	}
}

func TestApportionExactAndDeterministic(t *testing.T) {
	mix := DefaultMix()
	for _, n := range []int{1, 7, 12, 200, 997} {
		counts := apportion(n, mix)
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if sum != n {
			t.Fatalf("apportion(%d) sums to %d", n, sum)
		}
		if !reflect.DeepEqual(counts, apportion(n, mix)) {
			t.Fatalf("apportion(%d) not deterministic", n)
		}
	}
	// A 200-device default mix must include every cohort.
	counts := apportion(200, mix)
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("cohort %s got zero devices out of 200", mix[i].Name)
		}
	}
}

func TestFindKnee(t *testing.T) {
	mk := func(rate float64, offered, ok, errs uint64, achieved float64) PhaseReport {
		return PhaseReport{
			OfferedRate:  rate,
			AchievedRate: achieved,
			Counts:       Counts{Offered: offered, PushOK: ok, Status5xx: errs, Lost: offered - ok},
		}
	}
	cases := []struct {
		name      string
		phases    []PhaseReport
		knee      float64
		saturated bool
	}{
		{"empty", nil, 0, false},
		{"all sustained", []PhaseReport{
			mk(100, 1000, 1000, 0, 99), mk(200, 1000, 990, 0, 198),
		}, 200, false},
		{"knee found", []PhaseReport{
			mk(100, 1000, 1000, 0, 99),
			mk(200, 1000, 999, 1, 197),
			mk(400, 1000, 700, 300, 280),
		}, 200, true},
		{"never sustained", []PhaseReport{
			mk(500, 1000, 100, 900, 50),
		}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := findKnee(tc.phases)
			if tc.phases == nil {
				if got != nil {
					t.Fatal("want nil capacity for no phases")
				}
				return
			}
			if got.KneeRate != tc.knee || got.Saturated != tc.saturated {
				t.Fatalf("knee=%v saturated=%v, want %v/%v", got.KneeRate, got.Saturated, tc.knee, tc.saturated)
			}
		})
	}
}

func TestNewRunnerValidation(t *testing.T) {
	base := testConfig("http://example.invalid")
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no targets", func(c *Config) { c.Targets = nil }},
		{"relative target", func(c *Config) { c.Targets = []string{"localhost:8080"} }},
		{"no devices", func(c *Config) { c.Devices = 0 }},
		{"no phases", func(c *Config) { c.Phases = nil }},
		{"zero rate", func(c *Config) { c.Phases = []Phase{{Rate: 0, Events: 10}} }},
		{"no budget", func(c *Config) { c.Phases = []Phase{{Rate: 10}} }},
		{"bad cohort", func(c *Config) { c.Mix = []Cohort{{Name: "astronaut", Weight: 1}} }},
		{"negative weight", func(c *Config) { c.Mix = []Cohort{{Name: "elderly", Weight: -1}} }},
		{"zero weights", func(c *Config) { c.Mix = []Cohort{{Name: "elderly", Weight: 0}} }},
		{"horizon under batch", func(c *Config) { c.HorizonSec = 1; c.BatchSec = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := NewRunner(cfg); err == nil {
				t.Fatal("config accepted, want error")
			}
		})
	}
}
