package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"adasense"
	"adasense/internal/reqtrace"
)

// getRecorder fetches one replica's flight recorder snapshot.
func getRecorder(t *testing.T, base, token string) reqtrace.Snapshot {
	t.Helper()
	var snap reqtrace.Snapshot
	if code := doFed(t, "GET", base+"/v1/debug/requests", token, nil, &snap); code != 200 {
		t.Fatalf("GET /v1/debug/requests = %d", code)
	}
	return snap
}

// findRecord returns the recorder entries matching a trace id and route.
func findRecord(snap reqtrace.Snapshot, id, route string) []reqtrace.Record {
	var out []reqtrace.Record
	for _, rec := range snap.Recent {
		if rec.ID == id && rec.Route == route {
			out = append(out, rec)
		}
	}
	return out
}

func spanNames(rec reqtrace.Record) map[string]bool {
	names := map[string]bool{}
	for _, sp := range rec.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestFederationTraceAcrossReplicas is the observability acceptance
// scenario (run under -race in CI): a push sent to the wrong replica of
// a two-replica fleet is forwarded to its owner, and the flight
// recorders of BOTH replicas hold the same trace id — the dialed
// replica's record carries the forward hop, the owner's record carries
// the serving work, and together the trace names at least four pipeline
// stages.
func TestFederationTraceAcrossReplicas(t *testing.T) {
	a, b := newFederatedFleet(t, "")
	bDev := deviceOwnedBy(t, a.cluster, "gw-b")
	if code := doFed(t, "POST", a.base+"/v1/sessions", "", jsonBody(t, map[string]string{"id": bDev}), nil); code != 201 {
		t.Fatalf("forwarded open = %d", code)
	}

	// Push through the NON-owner so the request crosses the fleet, and
	// capture the trace id the gateway echoes on the response.
	req, err := http.NewRequest("POST", a.base+"/v1/sessions/"+bDev+"/push",
		bytes.NewReader(jsonBody(t, wireBatch(t, 2))))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded push = %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(adasense.TraceHeader)
	if !reqtrace.ValidID(traceID) {
		t.Fatalf("response %s = %q, not a valid trace id", adasense.TraceHeader, traceID)
	}

	// Replica A (dialed, non-owner): minted the trace at hop 0 and spent
	// the request forwarding.
	recA := findRecord(getRecorder(t, a.base, ""), traceID, "push")
	if len(recA) != 1 {
		t.Fatalf("replica A recorded %d entries for trace %s, want 1", len(recA), traceID)
	}
	if recA[0].Hop != 0 || recA[0].Status != 200 || recA[0].Device != bDev {
		t.Errorf("A record = hop %d status %d device %q, want 0/200/%q",
			recA[0].Hop, recA[0].Status, recA[0].Device, bDev)
	}
	namesA := spanNames(recA[0])
	for _, want := range []string{"auth", "route", "forward"} {
		if !namesA[want] {
			t.Errorf("A spans %v missing %q", recA[0].Spans, want)
		}
	}

	// Replica B (owner): inherited the SAME id one hop downstream and
	// did the serving work.
	recB := findRecord(getRecorder(t, b.base, ""), traceID, "push")
	if len(recB) != 1 {
		t.Fatalf("replica B recorded %d entries for trace %s, want 1", len(recB), traceID)
	}
	if recB[0].Hop != 1 || recB[0].Status != 200 || recB[0].Device != bDev {
		t.Errorf("B record = hop %d status %d device %q, want 1/200/%q",
			recB[0].Hop, recB[0].Status, recB[0].Device, bDev)
	}
	namesB := spanNames(recB[0])
	for _, want := range []string{"auth", "route", "push"} {
		if !namesB[want] {
			t.Errorf("B spans %v missing %q", recB[0].Spans, want)
		}
	}
	for name := range namesB {
		namesA[name] = true
	}
	if len(namesA) < 4 {
		t.Errorf("trace %s names %d distinct stages across the fleet, want >= 4", traceID, len(namesA))
	}
	for _, sp := range append(recA[0].Spans, recB[0].Spans...) {
		if sp.Dur < 0 {
			t.Errorf("span %q has negative duration %d", sp.Name, sp.Dur)
		}
	}

	// The forward hops (the open and the push) landed in the dialed
	// replica's stage histogram — and only there.
	if c := a.gw.Stats().Latency.Stages["forward"].Count; c != 2 {
		t.Errorf("A forward stage count = %d, want 2", c)
	}
	if c := b.gw.Stats().Latency.Stages["forward"].Count; c != 0 {
		t.Errorf("B forward stage count = %d, want 0", c)
	}
}

// TestIngressTrace: a well-formed upstream trace header is inherited
// with its hop count; malformed ids, absurd hop counts and injection
// attempts are discarded and a fresh id is minted instead.
func TestIngressTrace(t *testing.T) {
	mk := func(id, hop string) *http.Request {
		r, err := http.NewRequest("GET", "/v1/sessions/x", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			r.Header.Set(adasense.TraceHeader, id)
		}
		if hop != "" {
			r.Header.Set(adasense.TraceHopHeader, hop)
		}
		return r
	}
	if tr := ingressTrace(mk("abcdef0123456789", "3")); tr.ID != "abcdef0123456789" || tr.Hop != 3 {
		t.Errorf("valid upstream trace not inherited: %+v", tr)
	}
	for _, bad := range []struct{ id, hop string }{
		{"", ""},                             // no upstream trace
		{"ABCDEF0123456789", "1"},            // uppercase: not our grammar
		{"abc\"def} evil=\"1", "1"},          // log/label injection attempt
		{strings.Repeat("a", 65), "1"},       // oversized
		{"abcdef0123456789", "17"},           // hop above the loop cap
		{"abcdef0123456789", "-2"},           // negative hop
		{"abcdef0123456789", "not-a-number"}, // junk hop
	} {
		tr := ingressTrace(mk(bad.id, bad.hop))
		if !reqtrace.ValidID(tr.ID) {
			t.Errorf("id=%q hop=%q: minted invalid id %q", bad.id, bad.hop, tr.ID)
		}
		if bad.id != "" && reqtrace.ValidID(bad.id) {
			// A valid id with a bad hop keeps the id but resets the hop.
			if tr.ID != bad.id || tr.Hop != 0 {
				t.Errorf("id=%q hop=%q: got id=%q hop=%d, want inherited id at hop 0", bad.id, bad.hop, tr.ID, tr.Hop)
			}
		} else if tr.ID == bad.id || tr.Hop != 0 {
			t.Errorf("id=%q hop=%q: hostile header leaked into trace %+v", bad.id, bad.hop, tr)
		}
	}
}

// TestDebugRequestsAuthGated: the flight recorder holds device ids and
// paths, so it rides the same bearer gate as the serving routes.
func TestDebugRequestsAuthGated(t *testing.T) {
	ts, _ := newTestServer(t, adasense.WithAuth("s3cret"))
	if code := doFed(t, "GET", ts.URL+"/v1/debug/requests", "", nil, nil); code != 401 {
		t.Fatalf("unauthenticated debug fetch = %d, want 401", code)
	}
	if code := doFed(t, "POST", ts.URL+"/v1/sessions", "s3cret", jsonBody(t, map[string]string{"id": "dbg-1"}), nil); code != 201 {
		t.Fatal("open failed")
	}
	snap := getRecorder(t, ts.URL, "s3cret")
	if snap.Total != 1 || len(snap.Recent) != 1 {
		t.Fatalf("recorder snapshot = total %d, %d recent, want 1/1", snap.Total, len(snap.Recent))
	}
	rec := snap.Recent[0]
	if rec.Route != "open" || rec.Status != 201 || !reqtrace.ValidID(rec.ID) {
		t.Errorf("recorded %+v, want a valid open/201 trace", rec)
	}
}

// TestHealthzVersion: the probe body carries the build version so a
// fleet sweep of /healthz doubles as a version inventory.
func TestHealthzVersion(t *testing.T) {
	ts, _ := newTestServer(t)
	var body struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	if code := doFed(t, "GET", ts.URL+"/healthz", "", nil, &body); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if body.Status != "ok" || body.Version != version {
		t.Errorf("healthz body = %+v, want status ok, version %q", body, version)
	}
}

// TestMetricsHistogramExposition drives real traffic through the
// server, then validates the latency histograms on /metrics against the
// Prometheus text grammar: cumulative buckets per labeled series ending
// in +Inf, +Inf equal to the series count, and the route that served
// the traffic actually counted. The build-info gauge rides the same
// scrape.
func TestMetricsHistogramExposition(t *testing.T) {
	ts, _ := newTestServer(t)
	if code := doFed(t, "POST", ts.URL+"/v1/sessions", "", jsonBody(t, map[string]string{"id": "m-1"}), nil); code != 201 {
		t.Fatal("open failed")
	}
	for i := 0; i < 3; i++ {
		if code := doFed(t, "POST", ts.URL+"/v1/sessions/m-1/push", "", jsonBody(t, wireBatch(t, 2)), nil); code != 200 {
			t.Fatal("push failed")
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	if !regexp.MustCompile(`(?m)^adasense_build_info\{version="[^"]*",goversion="[^"]+"\} 1$`).MatchString(text) {
		t.Error("/metrics is missing the adasense_build_info gauge")
	}
	for _, family := range []string{"adasense_request_duration_seconds", "adasense_stage_duration_seconds"} {
		if !strings.Contains(text, "# TYPE "+family+" histogram") {
			t.Errorf("/metrics is missing the %s histogram TYPE line", family)
		}
		validateFamilyBuckets(t, family, text)
	}

	// The pushes landed in their route series: 3 pushes, 1 open, and the
	// extraction/classification stages ran once per pushed window batch.
	counts := histogramCounts(t, "adasense_request_duration_seconds", "route", text)
	if counts["push"] != 3 || counts["open"] != 1 {
		t.Errorf("route counts = %v, want push 3, open 1", counts)
	}
	stages := histogramCounts(t, "adasense_stage_duration_seconds", "stage", text)
	if stages["classify"] == 0 || stages["extract"] == 0 {
		t.Errorf("stage counts = %v, want classify and extract > 0", stages)
	}
}

// histogramCounts extracts the _count sample per label value of one
// histogram family from raw exposition text.
func histogramCounts(t *testing.T, family, label, text string) map[string]float64 {
	t.Helper()
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^%s_count\{%s="([^"]+)"\} ([0-9.e+-]+)$`, family, label))
	counts := map[string]float64{}
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("bad _count sample %q: %v", m[0], err)
		}
		counts[m[1]] = v
	}
	if len(counts) == 0 {
		t.Fatalf("no _count samples for family %s", family)
	}
	return counts
}

// validateFamilyBuckets checks one histogram family's bucket samples:
// per labeled series, cumulative non-decreasing counts over ascending
// le bounds, a trailing +Inf bucket, and +Inf equal to _count.
func validateFamilyBuckets(t *testing.T, family, text string) {
	t.Helper()
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^%s_bucket\{[a-z]+="([^"]+)",le="([^"]+)"\} ([0-9.e+-]+|\+Inf)$`, family))
	type state struct {
		lastLe, lastCount float64
		inf               float64
		seenInf           bool
	}
	series := map[string]*state{}
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		st := series[m[1]]
		if st == nil {
			st = &state{lastLe: -1, lastCount: -1}
			series[m[1]] = st
		}
		count, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("%s: bad bucket count %q", family, m[0])
		}
		if count < st.lastCount {
			t.Errorf("%s{%s}: bucket counts not cumulative at le=%s", family, m[1], m[2])
		}
		st.lastCount = count
		if m[2] == "+Inf" {
			st.inf, st.seenInf = count, true
			continue
		}
		le, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("%s: bad le %q", family, m[2])
		}
		if le <= st.lastLe {
			t.Errorf("%s{%s}: le bounds not ascending at %s", family, m[1], m[2])
		}
		st.lastLe = le
	}
	if len(series) == 0 {
		t.Fatalf("no bucket samples for family %s", family)
	}
	countRe := regexp.MustCompile(fmt.Sprintf(`(?m)^%s_count\{[a-z]+="([^"]+)"\} ([0-9.e+-]+)$`, family))
	for _, m := range countRe.FindAllStringSubmatch(text, -1) {
		st := series[m[1]]
		if st == nil || !st.seenInf {
			t.Errorf("%s{%s}: no +Inf bucket", family, m[1])
			continue
		}
		count, _ := strconv.ParseFloat(m[2], 64)
		if st.inf != count {
			t.Errorf("%s{%s}: +Inf bucket %v != _count %v", family, m[1], st.inf, count)
		}
	}
}

// TestLogRequestMatchesArgsForm: the typed-attr access log writes the
// bytes the plain Log(args...) form wrote, through both handler kinds
// and at a level that drops healthy traffic, for records with and
// without a device, healthy, slow and failed.
func TestLogRequestMatchesArgsForm(t *testing.T) {
	const slow = 250 * time.Millisecond
	// argsForm is the access log line as it was first written, kept as
	// the oracle.
	argsForm := func(log *slog.Logger, rec reqtrace.Record) {
		level := slog.LevelInfo
		if rec.Status >= 500 || rec.Duration >= slow {
			level = slog.LevelWarn
		}
		attrs := []any{
			"trace", rec.ID,
			"hop", rec.Hop,
			"route", rec.Route,
			"method", rec.Method,
			"path", rec.Path,
			"status", rec.Status,
			"dur", rec.Duration,
			"replica", "standalone",
		}
		if rec.Device != "" {
			attrs = append(attrs, "device", rec.Device)
		}
		if level == slog.LevelWarn && rec.Status < 500 {
			attrs = append(attrs, "slow", true)
		}
		log.Log(nil, level, "request", attrs...)
	}
	noTime := func(_ []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}
	handlers := map[string]func(io.Writer, *slog.HandlerOptions) slog.Handler{
		"text": func(w io.Writer, o *slog.HandlerOptions) slog.Handler { return slog.NewTextHandler(w, o) },
		"json": func(w io.Writer, o *slog.HandlerOptions) slog.Handler { return slog.NewJSONHandler(w, o) },
	}
	base := reqtrace.Record{ID: "0123456789abcdef", Hop: 1, Route: "push", Method: "POST",
		Path: `/v1/sessions/dev "1"/push`, Device: `dev "1"`, Status: 200, Duration: 1234567 * time.Nanosecond}
	var recs []reqtrace.Record
	for _, status := range []int{200, 404, 503} {
		for _, dur := range []time.Duration{base.Duration, slow, 3 * time.Second} {
			for _, device := range []string{base.Device, ""} {
				rec := base
				rec.Status, rec.Duration, rec.Device = status, dur, device
				recs = append(recs, rec)
			}
		}
	}
	for name, newHandler := range handlers {
		for _, level := range []slog.Level{slog.LevelInfo, slog.LevelWarn} {
			var got, want bytes.Buffer
			opts := &slog.HandlerOptions{Level: level, ReplaceAttr: noTime}
			s := &server{recorder: reqtrace.NewRecorder(1, slow), log: slog.New(newHandler(&got, opts))}
			oracle := slog.New(newHandler(&want, opts))
			for _, rec := range recs {
				s.logRequest(context.Background(), rec)
				argsForm(oracle, rec)
			}
			if want.Len() == 0 || got.String() != want.String() {
				t.Errorf("%s handler at %v:\n got %s\nwant %s", name, level, got.String(), want.String())
			}
		}
	}
}
