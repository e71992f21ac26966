// Command adasense-gateway serves a fleet of wearable devices over
// HTTP/JSON: it wraps one trained shared classifier in an
// adasense.Gateway — session registry with idle eviction, atomic model
// hot-swap, bearer-token auth, token-bucket rate limiting, graceful
// drain, Prometheus telemetry — and exposes the whole serving surface
// on the wire.
//
// Usage:
//
//	adasense-gateway [-addr :8734] [-model model.bin]
//	                 [-max-sessions 0] [-idle-ttl 0] [-sweep 30s]
//	                 [-token ""] [-device-rps 0] [-device-burst 0]
//	                 [-global-rps 0] [-global-burst 0]
//	                 [-drain-timeout 30s] [-train-windows 2400]
//	                 [-self ""] [-peers ""]
//	                 [-peers-file ""] [-peers-poll 5s] [-peers-debounce 0]
//	                 [-rollout-stages 0.05,0.25,1] [-rollout-window 1m]
//	                 [-rollout-min-samples 200] [-rollout-tick 5s]
//	                 [-rollout-confidence-tol 0.05] [-rollout-shift-tol 0.2]
//	                 [-rollout-error-tol 0.02] [-rollout-power-tol 0.1]
//	                 [-log-format text] [-log-level info]
//	                 [-slow-request 1s] [-flight-recorder 256]
//	                 [-debug-addr ""] [-stream-addr ""]
//
// With -model it serves a container written by adasense-train; without
// it, it trains a quick model at startup so the gateway is drivable out
// of the box. A retrained model is hot-swapped in with
//
//	curl -X POST -H "Authorization: Bearer $TOKEN" \
//	     --data-binary @model.bin http://host/v1/model
//
// without dropping a single live session. With -idle-ttl > 0 a
// background sweeper reclaims sessions idle past the TTL every -sweep
// interval. With -token (or the ADASENSE_TOKEN environment variable)
// every /v1/* route requires the bearer token; /metrics and /healthz
// stay open. On SIGTERM or SIGINT the gateway drains: new opens are
// refused, live sessions are closed after their in-flight pushes, the
// final telemetry snapshot is logged, and the process exits within
// -drain-timeout.
//
// With -self and -peers the gateway federates into a static replica
// fleet:
//
//	adasense-gateway -self gw-a \
//	    -peers gw-a=http://host-a:8734,gw-b=http://host-b:8734
//
// A consistent-hash ring over the replica ids assigns every device to
// one replica; session requests that arrive at the wrong replica are
// forwarded to their owner (the bearer token travels along), and one
// model upload is replicated to every replica. Every replica must be
// started with the identical -peers list and token.
//
// With -peers-file the member list is discovered instead of fixed: the
// file (same id=url grammar, one entry per line or comma-separated,
// #-comments allowed — a mounted configmap works as-is) is re-read
// every -peers-poll, and a change rebalances the fleet live: the ring
// is rebuilt, sessions whose devices moved are closed on their old
// owner after their in-flight push, and each device is transparently
// re-opened on its new owner on next contact. Every replica polls the
// same membership data. See docs/federation.md for topology, placement,
// membership and failure modes, and docs/operations.md for the full
// reference.
//
// A new model can also be rolled out gradually instead of swapped
// at once:
//
//	curl -X POST -H "Authorization: Bearer $TOKEN" \
//	     --data-binary @candidate.bin http://host/v1/rollout
//
// stages the candidate through device cohorts (-rollout-stages, ring
// fractions of the device id space), comparing canary health against
// the incumbent over -rollout-window and auto-promoting or
// auto-rolling-back against the -rollout-*-tol gates; a background
// ticker (-rollout-tick) keeps the stage machine moving on quiet
// fleets. GET /v1/rollout reports live status, DELETE aborts. See
// docs/rollout.md.
//
// Every request is traced end to end: an id is minted at ingress (or
// inherited from the X-Adasense-Trace header), travels across replica
// forwards and replications, and lands with its per-stage span
// breakdown in an in-memory flight recorder queryable at
// GET /v1/debug/requests (auth-gated). Access logs are structured
// (-log-format text|json, -log-level), requests slower than
// -slow-request or dying with a 5xx log at warn, and -debug-addr
// exposes net/http/pprof on a separate listener that should stay
// private. See docs/observability.md.
//
// Besides HTTP/JSON, devices can hold one persistent binary streaming
// connection each (the ADSP protocol): an HTTP/1.1 upgrade at
// GET /v1/stream, or raw TCP on -stream-addr. Batches push as compact
// binary frames, classification events and server-directed sensor
// reconfigurations flow back on the same connection, and on a
// federated fleet a misrouted device is redirected to its owning
// replica instead of being proxied per push. See docs/streaming.md for
// the wire protocol and operational semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adasense"
	"adasense/internal/membership"
	"adasense/internal/reqtrace"
)

// version identifies the build in the adasense_build_info metric and
// the /healthz payload. Release builds inject it:
//
//	go build -ldflags "-X main.version=$(git describe --tags --always)" ./cmd/adasense-gateway
var version = "dev"

func main() {
	cfg := gatewayFlags{}
	flag.StringVar(&cfg.addr, "addr", ":8734", "listen address")
	flag.StringVar(&cfg.modelPath, "model", "", "trained model container (empty: train a quick model at startup)")
	flag.IntVar(&cfg.trainWindows, "train-windows", 2400, "corpus size for the startup-trained model (with no -model)")
	flag.IntVar(&cfg.maxSessions, "max-sessions", 0, "session capacity cap (0 = unlimited)")
	flag.DurationVar(&cfg.idleTTL, "idle-ttl", 0, "evict sessions idle this long (0 = never)")
	flag.DurationVar(&cfg.sweep, "sweep", 30*time.Second, "idle-eviction sweep interval")
	flag.StringVar(&cfg.token, "token", "",
		"bearer token required on /v1/* routes (default $ADASENSE_TOKEN; empty = no auth)")
	flag.Float64Var(&cfg.deviceRPS, "device-rps", 0, "sustained per-device requests/sec (0 = unlimited)")
	flag.IntVar(&cfg.deviceBurst, "device-burst", 0, "per-device burst allowance (required with -device-rps)")
	flag.Float64Var(&cfg.globalRPS, "global-rps", 0, "sustained gateway-wide requests/sec (0 = unlimited)")
	flag.IntVar(&cfg.globalBurst, "global-burst", 0, "gateway-wide burst allowance (required with -global-rps)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", adasense.DefaultDrainTimeout,
		"deadline for graceful drain on SIGTERM/SIGINT")
	flag.StringVar(&cfg.self, "self", "", "this replica's id in a federated fleet (requires -peers or -peers-file)")
	flag.StringVar(&cfg.peers, "peers", "",
		"federation members as id=url,id=url (must include -self; identical on every replica)")
	flag.StringVar(&cfg.peersFile, "peers-file", "",
		"file holding the federation members (id=url per line; polled for live rebalancing)")
	flag.DurationVar(&cfg.peersPoll, "peers-poll", membership.DefaultPollInterval,
		"how often -peers-file is re-read for membership changes")
	flag.DurationVar(&cfg.peersDebounce, "peers-debounce", 0,
		"publish a -peers-file change only after its content is stable this long "+
			"(0 = immediately; set ≥ one -peers-poll to tolerate non-atomic writers)")
	rolloutDefaults := adasense.DefaultRolloutConfig()
	flag.StringVar(&cfg.rolloutStages, "rollout-stages", "0.05,0.25,1",
		"canary cohort fractions per rollout stage (ascending, last must be 1)")
	flag.DurationVar(&cfg.rolloutWindow, "rollout-window", rolloutDefaults.Window,
		"minimum observation window before a rollout stage is judged")
	flag.IntVar(&cfg.rolloutMinSamples, "rollout-min-samples", rolloutDefaults.MinSamples,
		"minimum canary and incumbent classifications before a stage is judged")
	flag.DurationVar(&cfg.rolloutTick, "rollout-tick", 5*time.Second,
		"how often the rollout stage machine is evaluated in the background "+
			"(it is also evaluated inline on served traffic)")
	flag.Float64Var(&cfg.rolloutConfidenceTol, "rollout-confidence-tol", rolloutDefaults.ConfidenceTolerance,
		"max mean-classify-confidence lag of canary vs incumbent before rollback")
	flag.Float64Var(&cfg.rolloutShiftTol, "rollout-shift-tol", rolloutDefaults.ShiftTolerance,
		"max activity-distribution total-variation shift before rollback")
	flag.Float64Var(&cfg.rolloutErrorTol, "rollout-error-tol", rolloutDefaults.ErrorTolerance,
		"max canary error-rate excess over incumbent before rollback")
	flag.Float64Var(&cfg.rolloutPowerTol, "rollout-power-tol", rolloutDefaults.PowerTolerance,
		"max relative estimated-power excess of canary vs incumbent before rollback")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log output format: text or json")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.DurationVar(&cfg.slowRequest, "slow-request", defaultSlowRequest,
		"requests at least this slow log at warn and are retained by the flight recorder (0 = never)")
	flag.IntVar(&cfg.flightRecorder, "flight-recorder", defaultFlightRecorderSize,
		"completed request traces kept for GET /v1/debug/requests (0 = keep none)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "",
		"separate listen address for net/http/pprof (empty = disabled; keep it private)")
	flag.StringVar(&cfg.streamAddr, "stream-addr", "",
		"listen address for raw-TCP ADSP streaming ingest "+
			"(empty = disabled; the HTTP upgrade at GET /v1/stream is always on)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "peers-poll":
			cfg.peersPollSet = true
		case "peers-debounce":
			cfg.peersDebounceSet = true
		}
	})
	// The env fallback is resolved after parsing so the secret never
	// becomes a flag default, which -h and flag errors would print.
	if cfg.token == "" {
		cfg.token = os.Getenv("ADASENSE_TOKEN")
	}

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "adasense-gateway:", err)
		os.Exit(1)
	}
}

type gatewayFlags struct {
	addr, modelPath           string
	trainWindows, maxSessions int
	idleTTL, sweep            time.Duration
	token                     string
	deviceRPS, globalRPS      float64
	deviceBurst, globalBurst  int
	drainTimeout              time.Duration
	self, peers               string
	peersFile                 string
	peersPoll                 time.Duration
	peersDebounce             time.Duration
	// Set-ness recorded via flag.Visit, so passing a flag at its default
	// value is still caught by the static-peers misconfiguration guard.
	peersPollSet, peersDebounceSet bool

	rolloutStages                         string
	rolloutWindow, rolloutTick            time.Duration
	rolloutMinSamples                     int
	rolloutConfidenceTol, rolloutShiftTol float64
	rolloutErrorTol, rolloutPowerTol      float64

	logFormat, logLevel string
	slowRequest         time.Duration
	flightRecorder      int
	debugAddr           string
	streamAddr          string
}

// newLogger builds the process logger from -log-format and -log-level.
func newLogger(cfg gatewayFlags) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(cfg.logLevel) {
	case "debug":
		level = slog.LevelDebug
	case "info":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level: unknown level %q (want debug, info, warn or error)", cfg.logLevel)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(cfg.logFormat) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format: unknown format %q (want text or json)", cfg.logFormat)
	}
}

// rolloutConfig assembles and validates the rollout policy from the
// -rollout-* flags. The policy stays local: a replicated rollout start
// carries only the candidate bytes, and each replica judges it under
// its own flags (kept identical fleet-wide, like ring parameters).
func (cfg gatewayFlags) rolloutConfig() (adasense.RolloutConfig, error) {
	rc := adasense.DefaultRolloutConfig()
	rc.Window = cfg.rolloutWindow
	rc.MinSamples = cfg.rolloutMinSamples
	rc.ConfidenceTolerance = cfg.rolloutConfidenceTol
	rc.ShiftTolerance = cfg.rolloutShiftTol
	rc.ErrorTolerance = cfg.rolloutErrorTol
	rc.PowerTolerance = cfg.rolloutPowerTol
	rc.Stages = nil
	for _, field := range strings.Split(cfg.rolloutStages, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return rc, fmt.Errorf("-rollout-stages: %q is not a fraction", field)
		}
		rc.Stages = append(rc.Stages, f)
	}
	if err := rc.Validate(); err != nil {
		return rc, err
	}
	if cfg.rolloutTick <= 0 {
		return rc, fmt.Errorf("non-positive -rollout-tick %v", cfg.rolloutTick)
	}
	return rc, nil
}

// parsePeers parses the -peers list ("id=url,id=url"). The self entry
// may be a bare id or omit its URL ("gw-a" or "gw-a=") — it still needs
// to be listed so every replica ring-hashes the same member set; peer
// entries need a URL, which NewCluster enforces.
func parsePeers(list string) ([]adasense.Replica, error) {
	members, err := membership.Parse(list)
	if err != nil {
		return nil, err
	}
	replicas := make([]adasense.Replica, len(members))
	for i, m := range members {
		replicas[i] = adasense.Replica{ID: m.ID, URL: m.URL}
	}
	return replicas, nil
}

// buildCluster federates the gateway per -self plus either -peers
// (static membership) or -peers-file (polled, live-rebalancing
// membership); no federation flags means standalone (nil cluster). On
// the file path the source is returned too, so run can watch its
// health hook.
func buildCluster(gw *adasense.Gateway, cfg gatewayFlags) (*adasense.Cluster, *membership.FileSource, error) {
	if cfg.peers == "" && cfg.peersFile == "" && cfg.self == "" {
		return nil, nil, nil
	}
	if cfg.self == "" {
		return nil, nil, fmt.Errorf("federation needs -self")
	}
	if cfg.peers != "" && cfg.peersFile != "" {
		return nil, nil, fmt.Errorf("-peers and -peers-file are mutually exclusive")
	}
	// A poll interval or debounce alongside static -peers would be
	// silently ignored; surface the misconfiguration at startup instead.
	if cfg.peers != "" && (cfg.peersPollSet || cfg.peersDebounceSet) {
		return nil, nil, fmt.Errorf("-peers-poll and -peers-debounce require -peers-file (static -peers is never re-read)")
	}
	var opts []adasense.ClusterOption
	if cfg.token != "" {
		opts = append(opts, adasense.WithPeerAuth(cfg.token))
	}
	if cfg.peersFile != "" {
		src, err := membership.NewFileSource(cfg.peersFile,
			membership.WithPollInterval(cfg.peersPoll),
			membership.WithDebounce(cfg.peersDebounce))
		if err != nil {
			return nil, nil, err
		}
		// NewClusterWithSource closes the source itself on error.
		cluster, err := adasense.NewClusterWithSource(gw, cfg.self, src, opts...)
		if err != nil {
			return nil, nil, err
		}
		return cluster, src, nil
	}
	if cfg.peers == "" {
		return nil, nil, fmt.Errorf("federation needs -peers or -peers-file")
	}
	replicas, err := parsePeers(cfg.peers)
	if err != nil {
		return nil, nil, err
	}
	cluster, err := adasense.NewCluster(gw, cfg.self, replicas, opts...)
	return cluster, nil, err
}

// watchMembershipHealth logs transitions of the membership health hooks
// (file read/parse failures from the source, snapshot rejections from
// the cluster), so a peers file gone bad is visible in the gateway log
// while the last good view keeps serving.
func watchMembershipHealth(cluster *adasense.Cluster, src *membership.FileSource, every time.Duration) {
	var last string
	for range time.Tick(every) {
		msg := ""
		if err := src.Err(); err != nil {
			msg = err.Error()
		} else if err := cluster.MembershipErr(); err != nil {
			msg = err.Error()
		}
		if msg == last {
			continue
		}
		if msg != "" {
			slog.Warn("membership degraded, serving last good view",
				"generation", cluster.Generation(), "err", msg)
		} else {
			slog.Info("membership healthy again", "generation", cluster.Generation())
		}
		last = msg
	}
}

func loadOrTrain(modelPath string, trainWindows int) (*adasense.System, error) {
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		slog.Info("serving model", "path", modelPath)
		return adasense.LoadSystem(f)
	}
	slog.Info("no -model: training a quick classifier", "windows", trainWindows)
	sys, acc, err := adasense.TrainSystem(adasense.TrainingConfig{Windows: trainWindows})
	if err != nil {
		return nil, err
	}
	slog.Info("startup model ready", "heldout_accuracy", acc)
	return sys, nil
}

// buildGateway assembles the hardened gateway from the flag set.
func buildGateway(sys *adasense.System, cfg gatewayFlags) (*adasense.Gateway, error) {
	opts := []adasense.GatewayOption{
		adasense.WithMaxSessions(cfg.maxSessions),
		adasense.WithIdleTTL(cfg.idleTTL),
		adasense.WithDrainTimeout(cfg.drainTimeout),
	}
	if cfg.token != "" {
		opts = append(opts, adasense.WithAuth(cfg.token))
	}
	if cfg.deviceRPS > 0 || cfg.globalRPS > 0 {
		opts = append(opts, adasense.WithRateLimit(adasense.RateLimit{
			DevicePerSec: cfg.deviceRPS,
			DeviceBurst:  cfg.deviceBurst,
			GlobalPerSec: cfg.globalRPS,
			GlobalBurst:  cfg.globalBurst,
		}))
	}
	return adasense.NewGateway(sys, opts...)
}

func run(cfg gatewayFlags) error {
	logger, err := newLogger(cfg)
	if err != nil {
		return err
	}
	// The process logger is also the default: package-level helpers
	// (loadOrTrain, watchMembershipHealth) and anything else that logs
	// without a handle inherit the configured format and level.
	slog.SetDefault(logger)
	rolloutCfg, err := cfg.rolloutConfig()
	if err != nil {
		return err
	}
	sys, err := loadOrTrain(cfg.modelPath, cfg.trainWindows)
	if err != nil {
		return err
	}
	gw, err := buildGateway(sys, cfg)
	if err != nil {
		return err
	}
	cluster, src, err := buildCluster(gw, cfg)
	if err != nil {
		return err
	}
	if src != nil {
		go watchMembershipHealth(cluster, src, cfg.peersPoll)
	}

	if cfg.idleTTL > 0 {
		if cfg.sweep <= 0 {
			return fmt.Errorf("non-positive sweep interval %v", cfg.sweep)
		}
		go func() {
			for range time.Tick(cfg.sweep) {
				if evicted := gw.EvictIdle(); len(evicted) > 0 {
					logger.Info("evicted idle sessions", "count", len(evicted), "devices", evicted)
				}
			}
		}()
	}

	// The rollout ticker is the quiet-fleet fallback: served traffic
	// evaluates the stage machine inline, but a canary over devices
	// that stop pushing would otherwise never settle.
	go func() {
		for range time.Tick(cfg.rolloutTick) {
			if verdict := gw.RolloutTick(); verdict != "" {
				logger.Info("rollout decision", "verdict", verdict)
			}
		}
	}()

	handler := newServer(gw, cluster)
	handler.rolloutCfg = rolloutCfg
	handler.recorder = reqtrace.NewRecorder(cfg.flightRecorder, cfg.slowRequest)
	handler.log = logger
	handler.version = version
	srv := &http.Server{Addr: cfg.addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	// The raw-TCP ADSP listener shares the HTTP surface's streamServer,
	// so both transports land in the same session loop, batcher and
	// stream counters. See docs/streaming.md.
	var streamLn net.Listener
	if cfg.streamAddr != "" {
		streamLn, err = net.Listen("tcp", cfg.streamAddr)
		if err != nil {
			return fmt.Errorf("stream listener: %w", err)
		}
		logger.Info("adsp stream listening", "addr", cfg.streamAddr)
		go func() {
			if err := handler.stream.Serve(streamLn); err != nil {
				logger.Error("stream listener failed", "err", err)
			}
		}()
	}

	if cfg.debugAddr != "" {
		// pprof rides its own listener so profiling stays reachable even
		// when binding the serving address to a public interface; the
		// debug address should only ever bind loopback or a private net.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", cfg.debugAddr)
			if err := http.ListenAndServe(cfg.debugAddr, dbg); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	logger.Info("gateway listening",
		"addr", cfg.addr, "version", version,
		"max_sessions", cfg.maxSessions, "idle_ttl", cfg.idleTTL,
		"auth", gw.AuthRequired(), "rate_limit", cfg.deviceRPS > 0 || cfg.globalRPS > 0)
	if cluster != nil {
		defer cluster.Close()
		source := "static -peers"
		if cfg.peersFile != "" {
			source = fmt.Sprintf("%s (polled every %v)", cfg.peersFile, cfg.peersPoll)
		}
		logger.Info("federated",
			"replica", cluster.Self(), "members", len(cluster.Members()), "membership", source)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
	}

	// Graceful drain: refuse new opens, let in-flight pushes finish,
	// close every session, then stop the HTTP listener. The final
	// telemetry snapshot is the "flush" — counters are fully settled
	// once Drain returns.
	logger.Info("shutdown signal: draining", "timeout", cfg.drainTimeout)
	// Streams close first — each live connection gets a goodbye frame
	// with CodeDraining so devices reconnect elsewhere cleanly — then
	// the gateway drains the sessions those streams were bound to.
	if streamLn != nil {
		streamLn.Close()
	}
	handler.stream.Shutdown()
	// Drain applies the gateway's own drain timeout to a deadline-less
	// context — including the -drain-timeout 0 "wait indefinitely" case,
	// which an explicit WithTimeout here would turn into an instant
	// expiry.
	drainErr := gw.Drain(context.Background())
	if drainErr != nil {
		logger.Warn("drain", "err", drainErr)
	}
	sctx := context.Background()
	if cfg.drainTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, cfg.drainTimeout)
		defer cancel()
	}
	if err := srv.Shutdown(sctx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	// One attribute carries every serving counter, so the line accounts
	// for federation and rollout traffic as well as sessions.
	logger.Info("final telemetry", "counters", gw.Stats().Snapshot)
	return drainErr
}
