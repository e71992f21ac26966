package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"adasense"
	"adasense/internal/reqtrace"
	"adasense/internal/telemetry"
)

// maxModelBytes bounds a model upload; real containers are tens of
// kilobytes. maxJSONBytes bounds every JSON request body — the largest
// legitimate one is a pushed batch, a few hundred samples of three
// float64 axes — so an oversized body cannot exhaust gateway memory.
const (
	maxModelBytes = 64 << 20
	maxJSONBytes  = 8 << 20
)

// sessionJSON is the wire shape of a session: its id and the sensor
// configuration the device must currently sample at.
type sessionJSON struct {
	ID     string `json:"id"`
	Config string `json:"config"`
}

// batchJSON is the wire shape of a pushed batch of raw 3-axis readings.
type batchJSON struct {
	// Config names the sensor configuration the batch was sampled under
	// (e.g. "F100_A128"); it must match the session's current config.
	Config  string    `json:"config"`
	StartAt float64   `json:"start_at,omitempty"`
	X       []float64 `json:"x"`
	Y       []float64 `json:"y"`
	Z       []float64 `json:"z"`
}

// eventJSON is one classification tick emitted by a push.
type eventJSON struct {
	Activity      string  `json:"activity"`
	Confidence    float64 `json:"confidence"`
	Config        string  `json:"config"`
	ConfigChanged bool    `json:"config_changed"`
}

// pushResponse carries the completed events plus the configuration the
// device must sample at from now on.
type pushResponse struct {
	Events []eventJSON `json:"events"`
	Config string      `json:"config"`
}

// classifyResponse is a one-shot classification result.
type classifyResponse struct {
	Activity   string  `json:"activity"`
	Confidence float64 `json:"confidence"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// server is the HTTP front end over one Gateway, optionally federated
// into a Cluster (nil when standalone).
type server struct {
	gw      *adasense.Gateway
	cluster *adasense.Cluster
	mux     *http.ServeMux

	// rolloutCfg is the policy applied to rollouts started through this
	// server (-rollout-* flags). It is not shipped with replicated
	// starts: every replica applies its own, which fleets keep identical
	// the same way they keep ring parameters identical.
	rolloutCfg adasense.RolloutConfig

	// stream is the ADSP streaming ingress sharing this gateway: the
	// GET /v1/stream HTTP upgrade plus the raw-TCP listener main
	// starts behind -stream-addr. See stream.go and docs/streaming.md.
	stream *streamServer

	// recorder is the flight recorder behind GET /v1/debug/requests;
	// log receives the structured access and lifecycle logs; version is
	// what /healthz and adasense_build_info report. newServer fills in
	// working defaults; main overrides them from flags before serving.
	recorder *reqtrace.Recorder
	log      *slog.Logger
	version  string
}

// newServer wires the gateway's HTTP surface:
//
//	POST   /v1/sessions              open a session            {"id": ...}
//	GET    /v1/sessions/{id}         current config
//	POST   /v1/sessions/{id}/push    push a batch, get events
//	POST   /v1/sessions/{id}/migrate re-pin to the current model
//	DELETE /v1/sessions/{id}         close the session
//	POST   /v1/classify              one-shot stateless classification
//	POST   /v1/model                 hot-swap an uploaded model container
//	GET    /v1/model                 download the current model container
//	POST   /v1/rollout               start a staged canary rollout
//	GET    /v1/rollout               rollout status (stage, health, log)
//	DELETE /v1/rollout               abort the rollout (rolls back)
//	POST   /v1/rollout/stage         replica-to-replica stage transition
//	GET    /v1/session-state/{id}    replica-to-replica session snapshot (ADSS)
//	PUT    /v1/session-state/{id}    replica-to-replica session restore (ADSS)
//	GET    /v1/stream                ADSP streaming ingest (HTTP/1.1 Upgrade: adsp)
//	GET    /v1/debug/requests        flight recorder (recent + slow/error traces)
//	GET    /metrics                  Prometheus text exposition
//	GET    /healthz                  liveness/readiness probe
//
// When the gateway was built with adasense.WithAuth, every /v1/* route
// requires "Authorization: Bearer <token>"; /metrics and /healthz stay
// open so scrapers and load balancers need no credentials.
//
// Every /v1/* route runs inside the observe middleware: the request
// trace is minted (or inherited from adasense.TraceHeader on a
// forwarded hop), spans accumulate across the middlewares and the
// cluster's forwarding path, and the completed request lands in the
// route latency histogram, the flight recorder and the access log. The
// trace id is echoed on every response in adasense.TraceHeader.
//
// With a non-nil cluster the server federates: session routes for a
// device the hash ring places on a peer are forwarded there (the bearer
// header travels with them), and a model upload is replicated to every
// replica — unless the request is itself a forward or a replication fan-
// out (marked by adasense.ForwardedHeader / adasense.ReplicatedHeader),
// which is always served locally so requests cannot loop.
func newServer(gw *adasense.Gateway, cluster *adasense.Cluster) *server {
	s := &server{gw: gw, cluster: cluster, mux: http.NewServeMux(),
		rolloutCfg: adasense.DefaultRolloutConfig(),
		recorder:   reqtrace.NewRecorder(defaultFlightRecorderSize, defaultSlowRequest),
		log:        slog.Default(),
		version:    version,
	}
	s.stream = newStreamServer(s)
	s.mux.HandleFunc("POST /v1/sessions", s.observe(telemetry.RouteOpen, s.auth(s.handleOpen)))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.observe(telemetry.RouteGet, s.auth(s.routed(s.handleGet))))
	s.mux.HandleFunc("POST /v1/sessions/{id}/push", s.observe(telemetry.RoutePush, s.auth(s.routed(s.handlePush))))
	s.mux.HandleFunc("POST /v1/sessions/{id}/migrate", s.observe(telemetry.RouteMigrate, s.auth(s.routed(s.handleMigrate))))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.observe(telemetry.RouteClose, s.auth(s.routed(s.handleClose))))
	s.mux.HandleFunc("POST /v1/classify", s.observe(telemetry.RouteClassify, s.auth(s.handleClassify)))
	s.mux.HandleFunc("POST /v1/model", s.observe(telemetry.RouteModel, s.auth(s.handleModel)))
	s.mux.HandleFunc("GET /v1/model", s.observe(telemetry.RouteModel, s.auth(s.handleModelGet)))
	s.mux.HandleFunc("POST /v1/rollout", s.observe(telemetry.RouteRollout, s.auth(s.handleRolloutStart)))
	s.mux.HandleFunc("GET /v1/rollout", s.observe(telemetry.RouteRollout, s.auth(s.handleRolloutStatus)))
	s.mux.HandleFunc("DELETE /v1/rollout", s.observe(telemetry.RouteRollout, s.auth(s.handleRolloutAbort)))
	s.mux.HandleFunc("POST /v1/rollout/stage", s.observe(telemetry.RouteRollout, s.auth(s.handleRolloutStage)))
	s.mux.HandleFunc("GET /v1/session-state/{id}", s.observe(telemetry.RouteState, s.auth(s.handleStateGet)))
	s.mux.HandleFunc("PUT /v1/session-state/{id}", s.observe(telemetry.RouteState, s.auth(s.handleStatePut)))
	// The stream route runs outside the auth and observe middlewares:
	// its auth is in-band (the hello frame, shared with raw TCP) and
	// its connection outlives any per-request trace — see handleUpgrade.
	s.mux.HandleFunc("GET /v1/stream", s.stream.handleUpgrade)
	s.mux.HandleFunc("GET /v1/debug/requests", s.auth(s.handleDebugRequests))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// auth enforces the gateway's bearer token (constant-time compare inside
// Gateway.Authorize). With no token configured it is a pass-through.
// The check is timed as the trace's "auth" span and the auth stage of
// the latency histograms.
func (s *server) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// The auth scheme compares case-insensitively (RFC 7235). A
		// header without the Bearer scheme presents the empty token,
		// which only an auth-less gateway accepts.
		const scheme = "Bearer "
		header, token := r.Header.Get("Authorization"), ""
		if len(header) >= len(scheme) && strings.EqualFold(header[:len(scheme)], scheme) {
			token = header[len(scheme):]
		}
		endSpan := reqtrace.FromContext(r.Context()).Span("auth")
		start := time.Now()
		ok := s.gw.Authorize(token)
		s.gw.ObserveStage(telemetry.StageAuth, time.Since(start))
		endSpan()
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="adasense"`)
			writeJSON(w, http.StatusUnauthorized, errorJSON{Error: "missing or invalid bearer token"})
			return
		}
		h(w, r)
	}
}

// forwardedByPeer reports whether r is a forward from another replica
// of this fleet: the marker header must name a known peer id, so a
// client stamping an arbitrary value cannot bypass ring routing.
func (s *server) forwardedByPeer(r *http.Request) bool {
	return s.cluster.IsPeer(r.Header.Get(adasense.ForwardedHeader))
}

// routed is the federation forwarding middleware for routes whose path
// carries the device id: a request for a device the ring places on a
// peer is proxied there transparently. Standalone servers and requests
// already forwarded once (loop guard under membership skew) serve
// locally; a forward that lands on a replica whose own ring disagrees
// is counted as a stale route — the sender decided on an older
// membership generation.
func (s *server) routed(h http.HandlerFunc) http.HandlerFunc {
	if s.cluster == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		tr := reqtrace.FromContext(r.Context())
		endSpan := tr.Span("route")
		start := time.Now()
		if s.forwardedByPeer(r) {
			s.observePeerGen(r, r.Header.Get(adasense.ForwardedHeader))
			if !s.cluster.Owns(r.PathValue("id")) {
				s.cluster.MarkStaleRoute()
			}
			s.gw.ObserveStage(telemetry.StageRoute, time.Since(start))
			endSpan()
			h(w, r)
			return
		}
		to, local := s.cluster.Route(r.PathValue("id"))
		s.gw.ObserveStage(telemetry.StageRoute, time.Since(start))
		endSpan()
		if local {
			h(w, r)
			return
		}
		s.forward(w, r, to)
	}
}

// observePeerGen hands the model generation a peer advertised on a
// federation request to the cluster's catch-up hook: a replica lagging
// the fleet's model (one that joined after a push) pulls and installs
// the newer model in the background.
func (s *server) observePeerGen(r *http.Request, peer string) {
	if s.cluster == nil || peer == "" {
		return
	}
	if gen, err := strconv.ParseUint(r.Header.Get(adasense.ModelGenHeader), 10, 64); err == nil {
		s.cluster.ObserveModelGen(peer, gen)
	}
}

// forward proxies r to its owning replica: a forward denied by the
// local global token bucket maps like any rate-limited request (429),
// transport failure maps to 502 so devices can distinguish a dead peer
// from their own bad request.
func (s *server) forward(w http.ResponseWriter, r *http.Request, to adasense.Replica) {
	if err := s.cluster.Forward(w, r, to); err != nil {
		if errors.Is(err, adasense.ErrRateLimited) {
			writeError(w, err)
			return
		}
		// The cluster error already names the peer replica.
		writeJSON(w, http.StatusBadGateway, errorJSON{Error: err.Error()})
	}
}

// writeJSON answers status with v as its JSON body. It encodes v before
// it writes the header, so a value encoding/json refuses (a NaN
// confidence from a batch of huge samples) answers 500 with a JSON error
// body rather than status with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		status = http.StatusInternalServerError
		body.Reset()
		json.NewEncoder(&body).Encode(errorJSON{Error: "encoding reply: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body.Bytes())
}

// writeError maps gateway errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, adasense.ErrSessionNotFound):
		status = http.StatusNotFound
	case errors.Is(err, adasense.ErrSessionExists):
		status = http.StatusConflict
	case errors.Is(err, adasense.ErrGatewayFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, adasense.ErrRateLimited):
		status = http.StatusTooManyRequests
	case errors.Is(err, adasense.ErrGatewayDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, adasense.ErrSessionClosed):
		status = http.StatusGone
	case errors.Is(err, adasense.ErrRolloutActive):
		status = http.StatusConflict
	case errors.Is(err, adasense.ErrNoRollout):
		status = http.StatusNotFound
	case errors.Is(err, adasense.ErrRolloutFrozen):
		status = http.StatusLocked
	case errors.Is(err, adasense.ErrStateGeneration):
		status = http.StatusConflict
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// lookup resolves the path's session id or writes a 404.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*adasense.GatewaySession, bool) {
	id := r.PathValue("id")
	sess, ok := s.gw.Lookup(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: %q", adasense.ErrSessionNotFound, id))
		return nil, false
	}
	return sess, true
}

// session binds the path's device for the push path, adopting it on a
// federated replica that owns it (see adopt); anything else answers 404.
func (s *server) session(w http.ResponseWriter, r *http.Request) (*adasense.GatewaySession, bool) {
	sess, _, err := s.bind(r.PathValue("id"), s.adopt)
	if err != nil {
		writeError(w, err)
		return nil, false
	}
	return sess, true
}

// decodeJSON decodes a size-capped JSON request body holding exactly
// one value; a body past maxJSONBytes fails with *http.MaxBytesError.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJSONBytes))
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// handleOpen routes by the device id in the request body, so it reads
// the raw body first: a federated open for a peer-owned device is
// forwarded with the body re-attached, everything else decodes from the
// same bytes.
func (s *server) handleOpen(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJSONBytes))
	if err != nil {
		writeError(w, fmt.Errorf("reading open request: %w", err))
		return
	}
	var req struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, fmt.Errorf("decoding open request: %w", err))
		return
	}
	forwarded := s.cluster != nil && s.forwardedByPeer(r)
	if forwarded {
		// Opens do not pass through the routed middleware, so the
		// forwarding peer's model generation is observed here.
		s.observePeerGen(r, r.Header.Get(adasense.ForwardedHeader))
	}
	// misplaced answers an open for a device the ring places on replica
	// to: a direct open is forwarded there with the body re-attached; a
	// forward means the sender routed on a stale ring, so it answers 410
	// and the device retries through an up-to-date replica instead of
	// bouncing a second hop.
	misplaced := func(to adasense.Replica, why string) {
		if !forwarded {
			r.Body = io.NopCloser(bytes.NewReader(raw))
			r.ContentLength = int64(len(raw))
			s.forward(w, r, to)
			return
		}
		writeError(w, fmt.Errorf("%w: %q %s", adasense.ErrSessionClosed, req.ID, why))
	}
	// An empty id is invalid on every replica — fail locally instead of
	// burning a forward on hash("")'s owner.
	if s.cluster != nil && req.ID != "" {
		if to, local := s.cluster.Route(req.ID); !local {
			// A stale forward is refused up front rather than minting a
			// session only for the re-check below to tear it down (or,
			// at capacity, answering a misleading 429).
			if forwarded {
				s.cluster.MarkStaleRoute()
			}
			misplaced(to, "is not owned here (stale route)")
			return
		}
	}
	endSpan := reqtrace.FromContext(r.Context()).Span("open")
	sess, err := s.gw.Open(req.ID)
	endSpan()
	if err != nil {
		writeError(w, err)
		return
	}
	if to, moved := s.recheckOwner(sess, true); moved {
		misplaced(to, "rebalanced to "+strconv.Quote(to.ID)+" during open")
		return
	}
	writeJSON(w, http.StatusCreated, sessionJSON{ID: sess.ID(), Config: sess.Config().Name()})
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sessionJSON{ID: sess.ID(), Config: sess.Config().Name()})
}

func (s *server) handlePush(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	sc := getBatchScratch()
	defer putBatchScratch(sc) // after Push has returned and the reply is written
	batch, err := sc.readBatch(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	endSpan := reqtrace.FromContext(r.Context()).Span("push")
	events, err := sess.PushAppend(sc.events[:0], batch)
	endSpan()
	if err != nil {
		writeError(w, err)
		return
	}
	sc.events = events
	cfg := sess.Config()
	out, ok := appendPushReply(sc.out[:0], events, cfg)
	if !ok {
		writeJSON(w, http.StatusOK, newPushResponse(events, cfg))
		return
	}
	sc.out = out
	writeReply(w, out)
}

func (s *server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if err := sess.Migrate(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionJSON{ID: sess.ID(), Config: sess.Config().Name()})
}

func (s *server) handleClose(w http.ResponseWriter, r *http.Request) {
	if err := s.gw.CloseSession(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleClassify(w http.ResponseWriter, r *http.Request) {
	sc := getBatchScratch()
	defer putBatchScratch(sc) // after Classify has returned and the reply is written
	batch, err := sc.readBatch(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	endSpan := reqtrace.FromContext(r.Context()).Span("classify")
	cls, err := s.gw.Classify(batch)
	endSpan()
	if err != nil {
		writeError(w, err)
		return
	}
	out, ok := appendClassifyReply(sc.out[:0], cls)
	if !ok {
		writeJSON(w, http.StatusOK, classifyResponse{Activity: cls.Activity.String(), Confidence: cls.Confidence})
		return
	}
	sc.out = out
	writeReply(w, out)
}

// swapReplicaJSON is one replica's outcome in a federated model push or
// rollout start.
type swapReplicaJSON struct {
	Replica  string `json:"replica"`
	Attempts int    `json:"attempts"`
	OK       bool   `json:"ok"`
	Error    string `json:"error,omitempty"`
}

// replicaReport renders a replication fan-out's per-replica outcomes.
func replicaReport(results []adasense.SwapResult) []swapReplicaJSON {
	report := make([]swapReplicaJSON, len(results))
	for i, res := range results {
		report[i] = swapReplicaJSON{Replica: res.Replica, Attempts: res.Attempts, OK: res.Err == nil}
		if res.Err != nil {
			report[i].Error = res.Err.Error()
		}
	}
	return report
}

// readUpload reads a model-sized upload body (what names it in errors),
// answering 400 on a read failure and 413 past maxModelBytes; ok is
// false when it has answered.
func readUpload(w http.ResponseWriter, r *http.Request, what string) (raw []byte, ok bool) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxModelBytes+1))
	if err != nil {
		writeError(w, fmt.Errorf("reading %s: %w", what, err))
		return nil, false
	}
	if len(raw) > maxModelBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorJSON{Error: fmt.Sprintf("%s exceeds %d bytes", what, maxModelBytes)})
		return nil, false
	}
	return raw, true
}

// handleModel hot-swaps the serving model from an uploaded container
// (the adasense-train output format). The swap is atomic: a bad upload
// changes nothing, a good one serves new sessions and Classify calls
// immediately while live sessions keep their pinned model.
//
// On a federated gateway one upload retrains the whole fleet: the model
// is replicated to every replica with per-replica results in the
// response. An upload fanned out by a peer (adasense.ReplicatedHeader)
// applies locally only, so replication cannot echo.
func (s *server) handleModel(w http.ResponseWriter, r *http.Request) {
	raw, ok := readUpload(w, r, "model upload")
	if !ok {
		return
	}
	if s.cluster != nil && !s.cluster.IsPeer(r.Header.Get(adasense.ReplicatedHeader)) {
		s.handleModelReplicated(w, r, raw)
		return
	}
	sys, err := adasense.LoadSystem(bytes.NewReader(raw))
	if err != nil {
		writeError(w, err)
		return
	}
	// A peer's replication fan-out (the only upload a federated gateway
	// applies here) carries the origin's model generation: install at it
	// (the local generation adopts max(local+1, origin)) so both sides
	// order the model identically. An operator upload is a plain swap.
	if gen, perr := strconv.ParseUint(r.Header.Get(adasense.ModelGenHeader), 10, 64); s.cluster != nil && perr == nil {
		err = s.gw.InstallModel(sys, gen)
	} else {
		err = s.gw.SwapModel(sys)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ModelSwaps uint64 `json:"model_swaps"`
	}{s.gw.Stats().ModelSwaps})
}

// handleModelGet serves the current model container bytes, with the
// model generation in adasense.ModelGenHeader — the pull side of
// replica catch-up, also handy for operator model backups.
func (s *server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	gen, err := s.gw.WriteModel(&buf)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(adasense.ModelGenHeader, strconv.FormatUint(gen, 10))
	w.Write(buf.Bytes())
}

// handleRolloutStart begins a staged canary rollout from an uploaded
// candidate container. On a federated gateway the start replicates to
// every replica (each applies its own -rollout-* policy); a start
// fanned out by a peer applies locally only, so replication cannot
// echo. 409 while another rollout is active, 423 when the candidate
// hash was frozen by an earlier health rollback.
func (s *server) handleRolloutStart(w http.ResponseWriter, r *http.Request) {
	raw, ok := readUpload(w, r, "rollout candidate")
	if !ok {
		return
	}
	peer := r.Header.Get(adasense.ReplicatedHeader)
	if s.cluster != nil && !s.cluster.IsPeer(peer) {
		st, results, err := s.cluster.StartRollout(r.Context(), raw, s.rolloutCfg)
		if results == nil {
			writeError(w, err)
			return
		}
		status := http.StatusCreated
		if err != nil {
			status = http.StatusBadGateway
		}
		writeJSON(w, status, struct {
			Rollout  adasense.RolloutStatus `json:"rollout"`
			Replicas []swapReplicaJSON      `json:"replicas"`
		}{st, replicaReport(results)})
		return
	}
	s.observePeerGen(r, peer)
	st, err := s.gw.StartRollout(raw, s.rolloutCfg)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// handleRolloutStatus reports the active rollout (live health windows,
// gate deltas, decision log) or the final status of the last settled
// one; 404 when no rollout has run since startup.
func (s *server) handleRolloutStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.gw.RolloutStatus()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleRolloutAbort rolls the active rollout back by operator
// decision; the abort transition replicates fleet-wide through the
// cluster's notify hook. Unlike a health-gate rollback it does not
// freeze the candidate hash.
func (s *server) handleRolloutAbort(w http.ResponseWriter, r *http.Request) {
	st, err := s.gw.AbortRollout("operator abort via DELETE /v1/rollout")
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleRolloutStage applies a stage transition decided by a peer
// replica. The route is replica-to-replica only: a request not carrying
// a known peer's replication marker is refused, so a client cannot
// drive the fleet's stage machine directly.
func (s *server) handleRolloutStage(w http.ResponseWriter, r *http.Request) {
	peer := r.Header.Get(adasense.ReplicatedHeader)
	if s.cluster == nil || !s.cluster.IsPeer(peer) {
		writeJSON(w, http.StatusForbidden,
			errorJSON{Error: "rollout stage transitions are replica-to-replica only"})
		return
	}
	// The origin's generation rides along; a replica that missed the
	// whole rollout (joined late) catches up to the completed model here.
	s.observePeerGen(r, peer)
	var tr adasense.RolloutTransition
	if err := decodeJSON(w, r, &tr); err != nil {
		writeError(w, fmt.Errorf("decoding stage transition: %w", err))
		return
	}
	applied, err := s.gw.ApplyRolloutTransition(tr)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Applied bool `json:"applied"`
	}{applied})
}

// handleStateGet serves a live session's state snapshot as an ADSS
// container, with the snapshot's pinned model generation in
// adasense.ModelGenHeader. Like stage transitions, the route is
// replica-to-replica only — but judged by IsHandoffPeer, since the
// counterpart of a handoff is a member the latest membership change
// just dropped. Session state is federation plumbing, not device API
// surface.
func (s *server) handleStateGet(w http.ResponseWriter, r *http.Request) {
	peer := r.Header.Get(adasense.ReplicatedHeader)
	if s.cluster == nil || !s.cluster.IsHandoffPeer(peer) {
		writeJSON(w, http.StatusForbidden,
			errorJSON{Error: "session-state transfers are replica-to-replica only"})
		return
	}
	s.observePeerGen(r, peer)
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	st, err := sess.Snapshot()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(adasense.ModelGenHeader, strconv.FormatUint(st.Generation, 10))
	st.Save(w)
}

// handleStatePut restores a session from an ADSS container shipped by a
// departing peer — the receiving half of stateful rebalance handoff.
// Replica-to-replica only, judged by IsHandoffPeer (the sender left the
// ring in the very change that triggered the transfer, so the current
// peer set alone would refuse every handoff), and only for a device
// this replica's ring owns. Anything else is a stale route: the sender
// decided on an older membership generation, and the device will be
// adopted by its real owner instead — unless this ring still names the
// sender as owner, i.e. this replica lags the change, which answers a
// retryable 503. A rejected container — bad bytes (400), a live
// session already minted by the device's own traffic (409), a model-
// generation mismatch (409) — needs no cleanup on the sender: the
// device simply adopts cold here on its next push.
func (s *server) handleStatePut(w http.ResponseWriter, r *http.Request) {
	peer := r.Header.Get(adasense.ReplicatedHeader)
	if s.cluster == nil || !s.cluster.IsHandoffPeer(peer) {
		writeJSON(w, http.StatusForbidden,
			errorJSON{Error: "session-state transfers are replica-to-replica only"})
		return
	}
	s.observePeerGen(r, peer)
	id := r.PathValue("id")
	if owner, local := s.cluster.Route(id); !local {
		if owner.ID == peer {
			// This ring still places the device on the sender, so the
			// sender applied a membership change this replica has not
			// polled yet. 503 is retried by the sender's delivery path,
			// by which time this view has usually caught up; refusing
			// outright would drop the state and force a cold adoption.
			writeJSON(w, http.StatusServiceUnavailable,
				errorJSON{Error: fmt.Sprintf("%q is still owned by %s here; membership catching up", id, peer)})
			return
		}
		s.cluster.MarkStaleRoute()
		writeError(w, fmt.Errorf("%w: %q is not owned here (stale route)",
			adasense.ErrSessionClosed, id))
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, adasense.MaxSessionStateBytes+1))
	if err != nil {
		writeError(w, fmt.Errorf("reading session state: %w", err))
		return
	}
	st, err := adasense.DecodeSessionState(raw)
	if err != nil {
		writeError(w, err)
		return
	}
	endSpan := reqtrace.FromContext(r.Context()).Span("restore")
	_, err = s.gw.RestoreSession(id, st)
	endSpan()
	if err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// handleModelReplicated fans a model upload out to every replica. All
// replicas swapped answers 200; a bad container answers 400 with no
// replica touched; a partial failure answers 502 with the per-replica
// report — the local swap and any successful peers keep the new model
// (retrying the upload is idempotent).
func (s *server) handleModelReplicated(w http.ResponseWriter, r *http.Request, raw []byte) {
	results, err := s.cluster.SwapModel(r.Context(), raw)
	if results == nil {
		writeError(w, err)
		return
	}
	status := http.StatusOK
	if err != nil {
		status = http.StatusBadGateway
	}
	writeJSON(w, status, struct {
		ModelSwaps uint64            `json:"model_swaps"`
		Replicas   []swapReplicaJSON `json:"replicas"`
	}{s.gw.Stats().ModelSwaps, replicaReport(results)})
}

// handleMetrics serves the Prometheus text exposition. Everything comes
// from one Gateway.Stats snapshot — the handler holds no gateway
// internals — plus the process-level adasense_build_info gauge, so
// fleet dashboards can correlate every series with the deployed build.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	if err := s.gw.WriteMetrics(w); err != nil {
		return
	}
	e := telemetry.NewEncoder(w)
	s.stream.writeMetrics(e)
	e.GaugeWith("adasense_build_info", "Build metadata; the payload is the labels, the value is always 1.",
		[]telemetry.Label{
			{Name: "version", Value: s.version},
			{Name: "goversion", Value: runtime.Version()},
		}, 1)
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503
// once draining so load balancers stop routing to a terminating
// instance. The body carries the build version so a fleet sweep of
// /healthz doubles as a deployment inventory.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, body := http.StatusOK, "ok"
	if s.gw.Draining() {
		status, body = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}{body, s.version})
}
