package main

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"adasense"
	"adasense/internal/reqtrace"
	"adasense/internal/telemetry"
)

// Flight-recorder defaults, overridable with -flight-recorder and
// -slow-request.
const (
	defaultFlightRecorderSize = 256
	defaultSlowRequest        = time.Second
)

// statusWriter captures the status code a handler writes, for the
// access log, the route histogram and the flight recorder.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ingressTrace resolves the request's trace: a well-formed
// adasense.TraceHeader from upstream (a peer forward, a replication
// fan-out, or a client that wants to correlate) is inherited together
// with its hop count; otherwise a fresh id is minted here. The id is
// validated before reuse so a hostile header cannot inject content into
// logs or the flight recorder.
func ingressTrace(r *http.Request) *reqtrace.Trace {
	tr := &reqtrace.Trace{Start: time.Now()}
	if id := r.Header.Get(adasense.TraceHeader); reqtrace.ValidID(id) {
		tr.ID = id
		if hop, err := strconv.Atoi(r.Header.Get(adasense.TraceHopHeader)); err == nil && hop > 0 && hop <= 16 {
			tr.Hop = hop
		}
	} else {
		tr.ID = reqtrace.NewID()
	}
	return tr
}

// observe is the ingress middleware wrapping every /v1/* route: it
// resolves the request trace, carries it through the context (where the
// auth/route middlewares, the handlers and Cluster.Forward add their
// spans), echoes the trace id on the response, and on completion feeds
// the route histogram, the flight recorder and the access log.
func (s *server) observe(route telemetry.Route, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := ingressTrace(r)
		w.Header().Set(adasense.TraceHeader, tr.ID)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(reqtrace.NewContext(r.Context(), tr)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(tr.Start)
		s.gw.ObserveRoute(route, dur)
		rec := reqtrace.Record{
			ID:       tr.ID,
			Hop:      tr.Hop,
			Route:    route.String(),
			Method:   r.Method,
			Path:     r.URL.Path,
			Device:   r.PathValue("id"),
			Status:   sw.status,
			Start:    tr.Start,
			Duration: dur,
			Spans:    tr.Spans(),
		}
		s.recorder.Record(rec)
		s.logRequest(r.Context(), rec)
	}
}

// logRequest emits the access log line for one completed request: info
// for healthy traffic, warn once a request crosses the slow threshold
// or dies with a 5xx, so `-log-level warn` keeps exactly the requests
// an operator would page on.
func (s *server) logRequest(ctx context.Context, rec reqtrace.Record) {
	level := slog.LevelInfo
	if rec.Status >= 500 || rec.Duration >= s.recorder.SlowThreshold() {
		level = slog.LevelWarn
	}
	if !s.log.Enabled(ctx, level) {
		return
	}
	attrs := append(make([]slog.Attr, 0, 10),
		slog.String("trace", rec.ID),
		slog.Int("hop", rec.Hop),
		slog.String("route", rec.Route),
		slog.String("method", rec.Method),
		slog.String("path", rec.Path),
		slog.Int("status", rec.Status),
		slog.Duration("dur", rec.Duration),
		slog.String("replica", s.replica()),
	)
	if rec.Device != "" {
		attrs = append(attrs, slog.String("device", rec.Device))
	}
	if level == slog.LevelWarn && rec.Status < 500 {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	s.log.LogAttrs(ctx, level, "request", attrs...)
}

// replica returns this server's fleet id, or "standalone".
func (s *server) replica() string {
	if s.cluster == nil {
		return "standalone"
	}
	return s.cluster.Self()
}

// handleDebugRequests serves the flight recorder: the last N completed
// request traces plus the retained slow/error sample, each with its
// per-stage span breakdown. The route rides the same bearer-token gate
// as /v1/*, so trace contents (device ids, paths) never leak to
// unauthenticated scrapers.
func (s *server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.recorder.Snapshot())
}
