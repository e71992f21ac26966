package main

import (
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adasense"
	"adasense/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_headers.golden from the current /metrics")

// TestMetricsSurface pins what an operator scrapes from /metrics: one
// scripted scenario over both doors of an authenticated, rate-limited
// gateway (HTTP open and push, an ADSP stream with pushes, one auth
// reject, one rate-limit reject, both sessions closed), then the
// ordered # HELP/# TYPE lines byte for byte against a golden file and
// the exact value of every label-free series the scenario fixes.
func TestMetricsSurface(t *testing.T) {
	const token = "s3cret"
	frozen := time.Unix(1_700_000_000, 0)
	ts, _, tcp := newDoorServer(t,
		adasense.WithAuth(token),
		adasense.WithMaxSessions(8),
		adasense.WithGatewayClock(func() time.Time { return frozen }),
		// A frozen clock never refills: each device gets three tokens.
		adasense.WithRateLimit(adasense.RateLimit{DevicePerSec: 1, DeviceBurst: 3}))
	bearer := "Bearer " + token

	events := 0
	if st := doTok(t, http.MethodPost, ts.URL+"/v1/sessions", bearer, map[string]string{"id": "surface-http"}, nil); st != http.StatusCreated {
		t.Fatalf("open = %d", st)
	}
	var resp pushResponse
	if st := doTok(t, http.MethodPost, ts.URL+"/v1/sessions/surface-http/push", bearer, wireBatch(t, 1), &resp); st != http.StatusOK {
		t.Fatalf("http push = %d", st)
	}
	events += len(resp.Events)
	if st := do(t, http.MethodPost, ts.URL+"/v1/sessions/surface-http/push", wireBatch(t, 1), nil); st != http.StatusUnauthorized {
		t.Fatalf("tokenless push = %d, want 401", st)
	}

	// The stream device spends its three tokens on the open and two
	// pushes; the third push is refused at its bucket.
	c, err := stream.Dial(context.Background(), tcp, "surface-tcp", token)
	if err != nil {
		t.Fatal(err)
	}
	batch := streamBatch(t)
	for i := 0; i < 2; i++ {
		ack, err := c.Push(batch)
		if err != nil {
			t.Fatalf("stream push %d: %v", i, err)
		}
		events += len(ack.Events)
	}
	_, err = c.Push(batch)
	wantServerError(t, err, stream.CodeRateLimited)
	c.Close()

	for _, id := range []string{"surface-http", "surface-tcp"} {
		if st := doTok(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, bearer, nil, nil); st != http.StatusNoContent {
			t.Fatalf("close %s = %d", id, st)
		}
	}
	// The stream loop exits, and the batcher reports its last run,
	// asynchronously after the client hangs up.
	waitFor(t, "stream connection and batcher to settle", 5*time.Second, func() bool {
		m := scrapeMetrics(t, ts.URL)
		return m["adasense_stream_connections"] == 0 && m["adasense_stream_batcher_flushes_total"] == 3
	})

	raw := scrapeRaw(t, ts.URL)
	var headers strings.Builder
	for _, line := range strings.SplitAfter(raw, "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			headers.WriteString(line)
		}
	}
	golden := filepath.Join("testdata", "metrics_headers.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(headers.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := headers.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("/metrics header line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("/metrics has %d header lines, golden %d", len(gl), len(wl))
	}

	m := scrapeMetrics(t, ts.URL)
	for name, want := range map[string]float64{
		"adasense_sessions_opened_total":           2,
		"adasense_sessions_closed_total":           2,
		"adasense_sessions_evicted_total":          0,
		"adasense_batches_pushed_total":            3,
		"adasense_events_emitted_total":            float64(events),
		"adasense_classify_calls_total":            0,
		"adasense_model_swaps_total":               0,
		"adasense_rate_limited_device_total":       1,
		"adasense_rate_limited_global_total":       0,
		"adasense_auth_rejects_total":              1,
		"adasense_forwarded_total":                 0,
		"adasense_replicated_swaps_total":          0,
		"adasense_peer_errors_total":               0,
		"adasense_rebalances_total":                0,
		"adasense_sessions_handed_off_total":       0,
		"adasense_stale_route_total":               0,
		"adasense_handoffs_stateful_total":         0,
		"adasense_handoffs_cold_total":             0,
		"adasense_rollout_canary_classifies_total": 0,
		"adasense_rollouts_promoted_total":         0,
		"adasense_rollouts_rolled_back_total":      0,
		"adasense_model_catchups_total":            0,
		"adasense_rollout_stage":                   -1,
		"adasense_rollout_fraction":                0,
		"adasense_model_generation":                1,
		"adasense_sessions_live":                   0,
		"adasense_session_capacity":                8,
		"adasense_draining":                        0,
		"adasense_stream_connections_total":        1,
		"adasense_stream_connections":              0,
		"adasense_stream_redirects_total":          0,
		"adasense_stream_batcher_flushes_total":    3,
		"adasense_stream_batcher_coalesced_total":  0,
		"adasense_stream_batcher_occupancy":        0,
	} {
		got, ok := m[name]
		if !ok {
			t.Fatalf("/metrics has no %s", name)
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Which checkouts hit the pipeline pool depends on the garbage
	// collector; how many checkouts happened (one per session) does not.
	if hits, misses := m["adasense_pool_hits_total"], m["adasense_pool_misses_total"]; hits+misses != 2 {
		t.Errorf("pool checkouts = %v hits + %v misses, want 2", hits, misses)
	}
}

// scrapeRaw returns the /metrics exposition as served.
func scrapeRaw(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
