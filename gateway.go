package adasense

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"adasense/internal/ratelimit"
	"adasense/internal/registry"
	"adasense/internal/telemetry"
)

// Gateway errors. Open and CloseSession wrap these so callers (and HTTP
// front ends) can map them with errors.Is.
var (
	// ErrSessionExists reports an Open with an id that is already serving.
	ErrSessionExists = errors.New("adasense: session id already open")
	// ErrGatewayFull reports an Open beyond the max-sessions cap.
	ErrGatewayFull = errors.New("adasense: gateway at session capacity")
	// ErrSessionNotFound reports an operation on an unknown session id.
	ErrSessionNotFound = errors.New("adasense: no such session")
	// ErrSessionClosed reports an operation on a closed (or evicted)
	// session.
	ErrSessionClosed = errors.New("adasense: session closed")
	// ErrRateLimited reports a request rejected by the gateway's token
	// buckets (per-device or global).
	ErrRateLimited = errors.New("adasense: rate limited")
	// ErrGatewayDraining reports an Open on a gateway that has begun
	// graceful shutdown.
	ErrGatewayDraining = errors.New("adasense: gateway draining")
	// ErrStateGeneration reports a session-state snapshot pinned to a
	// model generation this gateway is not serving; the sender falls
	// back to the cold re-open path.
	ErrStateGeneration = errors.New("adasense: session state from a different model generation")
)

// gatewayConfig holds the fleet-level policy a Gateway applies over its
// Service.
type gatewayConfig struct {
	maxSessions  int
	idleTTL      time.Duration
	clock        func() time.Time
	svcOpts      []Option
	authToken    string
	limits       ratelimit.Limits
	rateLimited  bool
	drainTimeout time.Duration
}

// GatewayOption configures a Gateway.
type GatewayOption func(*gatewayConfig) error

// DefaultDrainTimeout is the deadline Drain applies when its context has
// none and WithDrainTimeout was not used.
const DefaultDrainTimeout = 30 * time.Second

// WithMaxSessions caps the number of concurrently open sessions; Open
// returns ErrGatewayFull beyond it. Zero (the default) means unlimited.
func WithMaxSessions(n int) GatewayOption {
	return func(c *gatewayConfig) error {
		if n < 0 {
			return fmt.Errorf("adasense: negative session cap %d", n)
		}
		c.maxSessions = n
		return nil
	}
}

// WithIdleTTL sets the idle time after which EvictIdle reclaims a
// session. Zero (the default) disables eviction.
func WithIdleTTL(d time.Duration) GatewayOption {
	return func(c *gatewayConfig) error {
		if d < 0 {
			return fmt.Errorf("adasense: negative idle TTL %v", d)
		}
		c.idleTTL = d
		return nil
	}
}

// WithGatewayClock injects the gateway's time source, making idle
// eviction deterministically testable. The default is time.Now.
func WithGatewayClock(now func() time.Time) GatewayOption {
	return func(c *gatewayConfig) error {
		if now == nil {
			return fmt.Errorf("adasense: nil gateway clock")
		}
		c.clock = now
		return nil
	}
}

// RateLimit is the gateway's admission policy, enforced by a sharded
// token-bucket limiter: every Open and Push spends one token from the
// device's bucket and one from the shared global bucket, every one-shot
// Classify spends one global token. Rates are sustained tokens per
// second; bursts are bucket depths (the size of a spike admitted after
// idle time). A non-positive rate disables that tier, so a purely
// global or purely per-device policy is expressed by zeroing the other
// pair.
type RateLimit struct {
	DevicePerSec float64 `json:"device_per_sec"`
	DeviceBurst  int     `json:"device_burst"`
	GlobalPerSec float64 `json:"global_per_sec"`
	GlobalBurst  int     `json:"global_burst"`
}

// WithRateLimit enables per-device and/or global admission limiting.
// Rejected calls fail with ErrRateLimited and are counted in Stats. The
// limiter shares the gateway's clock, so rate limiting is
// deterministically testable alongside idle eviction.
func WithRateLimit(rl RateLimit) GatewayOption {
	return func(c *gatewayConfig) error {
		c.limits = ratelimit.Limits{
			DeviceRate:  rl.DevicePerSec,
			DeviceBurst: rl.DeviceBurst,
			GlobalRate:  rl.GlobalPerSec,
			GlobalBurst: rl.GlobalBurst,
		}
		c.rateLimited = true
		return nil
	}
}

// WithAuth requires every authenticated gateway operation to present
// this bearer token; Authorize compares in constant time. An empty
// token is rejected here — leaving the option off is how an open
// gateway is configured.
func WithAuth(token string) GatewayOption {
	return func(c *gatewayConfig) error {
		if token == "" {
			return fmt.Errorf("adasense: empty auth token (omit WithAuth for an open gateway)")
		}
		c.authToken = token
		return nil
	}
}

// WithDrainTimeout sets the deadline Drain applies when its context has
// none (default 30 s). Zero disables the default, making such a Drain
// wait indefinitely; negative is invalid.
func WithDrainTimeout(d time.Duration) GatewayOption {
	return func(c *gatewayConfig) error {
		if d < 0 {
			return fmt.Errorf("adasense: negative drain timeout %v", d)
		}
		c.drainTimeout = d
		return nil
	}
}

// WithServiceOptions sets the Service options the gateway applies to the
// initial service and to every service it builds on SwapModel, so a
// hot-swapped model keeps the fleet's controller policy.
func WithServiceOptions(opts ...Option) GatewayOption {
	return func(c *gatewayConfig) error {
		c.svcOpts = append(c.svcOpts, opts...)
		return nil
	}
}

// ServingStats is a point-in-time snapshot of a gateway's serving
// state: the monotonic telemetry counters (the embedded Snapshot, whose
// fields and JSON keys are promoted, so Stats().ModelSwaps reads a
// counter directly) plus the live gauges (registry occupancy, capacity,
// drain state) a metrics endpoint needs, so exporters read everything
// from one snapshot instead of reaching into gateway internals.
type ServingStats struct {
	telemetry.Snapshot

	// RolloutStage is the active rollout's stage index, or -1 while no
	// rollout is observing; RolloutFraction is its current cohort
	// fraction. ModelGeneration orders the serving model fleet-wide.
	RolloutStage    int     `json:"rollout_stage"`
	RolloutFraction float64 `json:"rollout_fraction"`
	ModelGeneration uint64  `json:"model_generation"`

	// SessionsLive is the registry occupancy at snapshot time;
	// SessionCapacity is the configured max-sessions cap (0 =
	// unlimited). Draining reports whether Drain has begun.
	SessionsLive    int  `json:"sessions_live"`
	SessionCapacity int  `json:"session_capacity"`
	Draining        bool `json:"draining"`

	// Latency holds the per-route and per-stage latency histogram
	// snapshots — the non-counter instruments riding the same
	// single-snapshot path, so WriteMetrics never reads a live
	// histogram.
	Latency telemetry.LatencySnapshot `json:"latency"`
}

// Gateway is the fleet-level serving front end over the Service/Session
// layer: one place a production deployment opens, finds, evicts and
// closes the sessions of a whole device fleet, atomically hot-swaps the
// model they serve, and reads serving telemetry.
//
// A Gateway owns an atomically swappable *Service plus a sharded session
// registry with id lookup, an idle-TTL eviction policy and a max-sessions
// capacity cap. All methods are safe for concurrent use by any number of
// goroutines; unlike a bare Session, a GatewaySession serializes its own
// calls, so gateway-fronted traffic needs no external confinement.
//
// Hot-swap semantics: SwapModel builds a fresh Service over the retrained
// System and atomically repoints what the gateway serves. New sessions
// and one-shot Classify calls use the new model from that instant; live
// sessions keep the service they were minted on — their in-flight state
// and scratch buffers stay consistent — until they close or opt in with
// Migrate. No session is dropped or corrupted by a swap.
type Gateway struct {
	cfg     gatewayConfig
	tel     *telemetry.Counters
	lat     telemetry.Latencies
	cur     atomic.Pointer[Service]
	reg     *registry.Registry[*GatewaySession]
	limiter *ratelimit.Limiter // nil without WithRateLimit

	// draining flips once, when Drain begins; Open rejects from then on.
	draining atomic.Bool

	// swapMu serializes model publishes so (cur, modelGen) always move
	// as a pair and concurrent swaps cannot publish out of order
	// relative to the swap counter.
	swapMu sync.Mutex

	// modelGen is the fleet-wide model ordinal this gateway serves: 1
	// at startup, advanced by every swap, rollout completion and
	// catch-up install. Stored only under swapMu.
	modelGen atomic.Uint64

	// rolloutMu serializes the rollout control plane (start, abort,
	// tick, replicated transitions, model installs) and orders before
	// swapMu and before any session mutex; the per-push serving path
	// never takes it.
	rolloutMu sync.Mutex
	rollouts  struct {
		// active is the rollout currently observing, nil otherwise.
		active atomic.Pointer[activeRollout]
		// last retains the final status of the most recently settled
		// rollout for GET /v1/rollout.
		last atomic.Pointer[RolloutStatus]
		// frozen maps candidate hashes a health gate rolled back to the
		// gate's reason; guarded by rolloutMu.
		frozen map[uint64]string
	}

	// rolloutNotify, when set (by the Cluster layer), receives every
	// locally decided rollout transition for fleet-wide replication.
	// Set before serving begins; never mutated after.
	rolloutNotify func(RolloutTransition)
}

// NewGateway builds a gateway serving sys. Service options supplied via
// WithServiceOptions configure the initial service and every hot-swapped
// successor.
func NewGateway(sys *System, opts ...GatewayOption) (*Gateway, error) {
	cfg := gatewayConfig{clock: time.Now, drainTimeout: DefaultDrainTimeout}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	gw := &Gateway{cfg: cfg, tel: &telemetry.Counters{}}
	gw.rollouts.frozen = make(map[uint64]string)
	gw.modelGen.Store(1)
	if cfg.rateLimited {
		limiter, err := ratelimit.New(cfg.limits,
			ratelimit.WithClock(ratelimit.Clock(cfg.clock)),
		)
		if err != nil {
			return nil, fmt.Errorf("adasense: %w", err)
		}
		gw.limiter = limiter
	}
	svc, err := NewService(sys, cfg.svcOpts...)
	if err != nil {
		return nil, err
	}
	svc.tel = gw.tel
	svc.lat = &gw.lat
	svc.gen = 1
	gw.cur.Store(svc)
	gw.reg = registry.New[*GatewaySession](
		registry.WithCapacity(cfg.maxSessions),
		registry.WithClock(registry.Clock(cfg.clock)),
	)
	return gw, nil
}

// Service returns the service currently serving new sessions and
// Classify calls. The pointer is a snapshot: a concurrent SwapModel may
// supersede it at any time.
func (gw *Gateway) Service() *Service { return gw.cur.Load() }

// SwapModel atomically repoints the gateway at a retrained System. It
// builds a fresh Service with the gateway's service options, validates it
// (an invalid system leaves the gateway untouched), then publishes it:
// subsequent Open and Classify calls serve the new model, while live
// sessions keep their pinned service until Close or Migrate.
//
// While a rollout is observing, SwapModel fails with ErrRolloutActive:
// an all-at-once push would silently clobber the half-promoted canary
// and invalidate its health comparison. Finish or abort the rollout
// first.
func (gw *Gateway) SwapModel(sys *System) error {
	gw.rolloutMu.Lock()
	defer gw.rolloutMu.Unlock()
	if ar := gw.rollouts.active.Load(); ar != nil {
		return fmt.Errorf("%w: candidate %016x at stage %d — abort it or let it settle before swapping",
			ErrRolloutActive, ar.ctl.Candidate(), ar.ctl.Stage())
	}
	svc, err := NewService(sys, gw.cfg.svcOpts...)
	if err != nil {
		return fmt.Errorf("adasense: swap rejected: %w", err)
	}
	svc.tel = gw.tel
	svc.lat = &gw.lat
	gw.swapMu.Lock()
	svc.gen = gw.modelGen.Load() + 1
	gw.cur.Store(svc)
	gw.modelGen.Add(1)
	gw.swapMu.Unlock()
	gw.tel.ModelSwaps.Add(1)
	return nil
}

// Open mints a session on the current service and registers it under id.
// It fails with ErrSessionExists if the id is already serving and
// ErrGatewayFull at the max-sessions cap. The registry slot is reserved
// before the session is built, so a rejected open (duplicate id,
// capacity) costs a map probe, not a pipeline and engine construction —
// a reconnect storm against a full gateway sheds load cheaply.
func (gw *Gateway) Open(id string) (*GatewaySession, error) {
	if id == "" {
		return nil, fmt.Errorf("adasense: Open needs a non-empty session id")
	}
	if gw.draining.Load() {
		return nil, fmt.Errorf("%w: rejecting open %q", ErrGatewayDraining, id)
	}
	if err := gw.allow(id); err != nil {
		return nil, err
	}
	return gw.register(id, "open", func(svc *Service) (*Session, error) { return svc.OpenSession(id) })
}

// register is the registration step Open and RestoreSession share: it
// reserves id's registry slot before build makes the session on the
// service serving id, holding the session lock so a concurrent Lookup
// that wins the race blocks on Push/Config until the session is
// actually built (or sees it closed if the build failed). On any
// failure the slot is unwound. verb names the operation in errors.
func (gw *Gateway) register(id, verb string, build func(*Service) (*Session, error)) (*GatewaySession, error) {
	gs := &GatewaySession{id: id, gw: gw}
	gs.mu.Lock()
	if err := gw.reg.Put(id, gs); err != nil {
		gs.mu.Unlock()
		switch {
		case errors.Is(err, registry.ErrDuplicate):
			return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
		case errors.Is(err, registry.ErrFull):
			return nil, fmt.Errorf("%w (%d)", ErrGatewayFull, gw.cfg.maxSessions)
		}
		return nil, err
	}
	// Re-check draining now that the registration is visible: a Drain
	// that set the flag between the first check and the Put may already
	// have swept an empty registry and returned, so tearing down here is
	// the only way this open cannot outlive a completed drain. (A Drain
	// starting after this load sees the registration and closes it.)
	var sess *Session
	var err error
	if gw.draining.Load() {
		err = fmt.Errorf("%w: rejecting %s %q", ErrGatewayDraining, verb, id)
	} else {
		// Resolve the service rollout-aware: a device inside an active
		// rollout's cohort pins to the canary. The registration above
		// happens before this load, so a rollout transition racing the
		// build either is already visible here or will find this session
		// in its re-pin sweep (blocking on gs.mu until the build
		// publishes).
		sess, err = build(gw.serviceFor(id))
	}
	if err != nil {
		gs.closed = true
		gs.mu.Unlock()
		gw.reg.CompareAndRemove(id, gs)
		return nil, err
	}
	gs.sess = sess
	gs.mu.Unlock()
	gw.tel.SessionsOpened.Add(1)
	return gs, nil
}

// AdoptSession is Open for a device the ring says this replica owns but
// no live session exists for: the cold half of the handoff contract,
// taken when the old owner is gone, never sent a snapshot, or sent one
// this replica rejected. It counts in the handoffs_cold series so the
// stateful/cold split is visible fleet-wide.
func (gw *Gateway) AdoptSession(id string) (*GatewaySession, error) {
	gs, err := gw.Open(id)
	if err != nil {
		return nil, err
	}
	gw.tel.HandoffsCold.Add(1)
	return gs, nil
}

// RestoreSession mints a session for id and primes it from a peer's
// state snapshot — the receiving half of a stateful rebalance handoff.
// It mirrors Open's registration contract (draining, duplicate ids,
// capacity) and additionally requires the snapshot's pinned model
// generation to match the service that will host the session; a skewed
// snapshot fails with ErrStateGeneration and the sender falls back to
// the cold path. On any restore failure nothing stays registered — the
// device's next push adopts it cold.
func (gw *Gateway) RestoreSession(id string, st *SessionState) (*GatewaySession, error) {
	if id == "" {
		return nil, fmt.Errorf("adasense: RestoreSession needs a non-empty session id")
	}
	if st == nil {
		return nil, fmt.Errorf("adasense: RestoreSession needs a snapshot")
	}
	if gw.draining.Load() {
		return nil, fmt.Errorf("%w: rejecting restore %q", ErrGatewayDraining, id)
	}
	// Peer-driven work carries no device traffic; charge the global
	// bucket only, like forwards.
	if err := gw.allowGlobal(); err != nil {
		return nil, err
	}
	gs, err := gw.register(id, "restore", func(svc *Service) (*Session, error) {
		// A snapshot from generation 0 comes from a bare Service and pins
		// nothing; anything else must match the hosting service exactly.
		// A cohort device during an active rollout resolves to the canary
		// (generation 0 until promoted), so snapshots conservatively fall
		// back cold rather than graft incumbent state onto the canary arm.
		if st.Generation != 0 && st.Generation != svc.gen {
			return nil, fmt.Errorf("%w: snapshot pinned generation %d, serving %d",
				ErrStateGeneration, st.Generation, svc.gen)
		}
		sess, err := svc.OpenSession(id)
		if err != nil {
			return nil, err
		}
		if err := sess.Restore(st); err != nil {
			sess.Close()
			return nil, err
		}
		return sess, nil
	})
	if err != nil {
		return nil, err
	}
	gw.tel.HandoffsStateful.Add(1)
	return gs, nil
}

// allow runs one keyed admission check, mapping limiter decisions onto
// ErrRateLimited and the telemetry counters. A nil limiter admits
// everything.
func (gw *Gateway) allow(device string) error {
	if gw.limiter == nil {
		return nil
	}
	start := time.Now()
	decision := gw.limiter.Allow(device)
	gw.lat.ObserveStage(telemetry.StageRateLimit, time.Since(start))
	switch decision {
	case ratelimit.DeniedGlobal:
		gw.tel.RateLimitedGlobal.Add(1)
		return fmt.Errorf("%w: gateway throughput cap", ErrRateLimited)
	case ratelimit.DeniedDevice:
		gw.tel.RateLimitedDevice.Add(1)
		return fmt.Errorf("%w: device %q over its budget", ErrRateLimited, device)
	}
	return nil
}

// allowGlobal spends one token from the gateway-wide bucket only — the
// admission check for work that carries no device identity (one-shot
// Classify, federation forwards). A nil limiter admits everything.
func (gw *Gateway) allowGlobal() error {
	if gw.limiter == nil {
		return nil
	}
	start := time.Now()
	ok := gw.limiter.AllowGlobal().OK()
	gw.lat.ObserveStage(telemetry.StageRateLimit, time.Since(start))
	if ok {
		return nil
	}
	gw.tel.RateLimitedGlobal.Add(1)
	return fmt.Errorf("%w: gateway throughput cap", ErrRateLimited)
}

// ObserveRoute records one completed request of the given route class
// into the gateway's latency histograms. The HTTP front end calls it
// once per request; the histograms surface through Stats().Latency and
// /metrics.
func (gw *Gateway) ObserveRoute(r telemetry.Route, d time.Duration) {
	gw.lat.ObserveRoute(r, d)
}

// ObserveStage records one completed pipeline stage (auth, ring route,
// forward hop, ...) into the gateway's latency histograms. Callers that
// time a stage themselves — the HTTP middleware, the Cluster forward
// path — report through here so every instrument lives in one place.
func (gw *Gateway) ObserveStage(s telemetry.Stage, d time.Duration) {
	gw.lat.ObserveStage(s, d)
}

// Authorize reports whether the presented bearer token matches the one
// configured with WithAuth, comparing in constant time so the check does
// not leak the token's contents through timing. Without WithAuth every
// token (including the empty one) is accepted. Rejections are counted
// in Stats.
func (gw *Gateway) Authorize(token string) bool {
	if gw.cfg.authToken == "" {
		return true
	}
	if subtle.ConstantTimeCompare([]byte(token), []byte(gw.cfg.authToken)) == 1 {
		return true
	}
	gw.tel.AuthRejects.Add(1)
	return false
}

// AuthRequired reports whether the gateway was configured with WithAuth.
func (gw *Gateway) AuthRequired() bool { return gw.cfg.authToken != "" }

// Lookup returns the live session registered under id.
func (gw *Gateway) Lookup(id string) (*GatewaySession, bool) {
	return gw.reg.Get(id)
}

// CloseSession closes and unregisters the session with the given id.
func (gw *Gateway) CloseSession(id string) error {
	gs, ok := gw.reg.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	gs.Close()
	return nil
}

// EvictIdle reclaims every session idle for at least the gateway's idle
// TTL (by the gateway's clock) and returns the evicted ids. With no TTL
// configured it is a no-op. Production callers run it on a ticker; tests
// drive it manually with a fake clock.
func (gw *Gateway) EvictIdle() []string {
	evicted := gw.reg.EvictIdle(gw.cfg.idleTTL)
	ids := make([]string, 0, len(evicted))
	for _, e := range evicted {
		// close reports false if the session lost the race to a
		// concurrent Close, which already counted it.
		if _, closed := e.Val.close(false); closed {
			gw.tel.SessionsEvicted.Add(1)
		}
		ids = append(ids, e.ID)
	}
	// Piggyback limiter hygiene on the sweep: token buckets of devices
	// idle past the TTL are dropped (only once refilled, so invisibly).
	if gw.limiter != nil {
		gw.limiter.Prune(gw.cfg.idleTTL)
	}
	return ids
}

// NumSessions returns the number of currently open sessions.
func (gw *Gateway) NumSessions() int { return gw.reg.Len() }

// Classify runs one stateless classification through the current model.
// After a SwapModel it serves the new model immediately. Classify
// carries no device identity, so rate limiting charges only the global
// bucket. A batch Batch.Validate refuses is refused before the bucket is
// charged.
func (gw *Gateway) Classify(b *Batch) (Classification, error) {
	if err := b.Validate(); err != nil {
		return Classification{}, err
	}
	if err := gw.allowGlobal(); err != nil {
		return Classification{}, err
	}
	return gw.cur.Load().Classify(b)
}

// Drain gracefully shuts the gateway down: it stops accepting opens
// (Open fails with ErrGatewayDraining from the first instant), then
// closes every live session — in-flight pushes finish first, since a
// session serializes its own calls — and returns once the registry is
// empty. The telemetry counters are left fully settled (every close
// counted) for a final scrape or log line.
//
// If ctx carries no deadline the gateway's drain timeout applies
// (WithDrainTimeout, default DefaultDrainTimeout). On timeout Drain
// reports how many sessions were still live. Draining is terminal:
// there is no resume, and repeated Drain calls are safe.
func (gw *Gateway) Drain(ctx context.Context) error {
	gw.draining.Store(true)
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := ctx.Deadline(); !ok && gw.cfg.drainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, gw.cfg.drainTimeout)
		defer cancel()
	}
	// Sweep in a goroutine so the deadline always wins a wait: Close
	// blocks on each session's own mutex until its in-flight push
	// finishes. Each session is closed on its own goroutine, so one
	// session stuck in a long push delays only itself, not the rest of
	// the fleet. Rounds repeat until the registry is empty — catching
	// opens that raced the draining flag — with stragglers from earlier
	// rounds collapsing into idempotent no-op Closes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		// One closer goroutine per session for the whole drain (ids
		// cannot re-register while draining), so a session stuck in a
		// long push parks exactly one goroutine, however many rounds
		// pass before its push completes.
		spawned := make(map[string]bool)
		for ctx.Err() == nil {
			gw.reg.Range(func(id string, gs *GatewaySession) bool {
				if !spawned[id] {
					spawned[id] = true
					go gs.Close()
				}
				return ctx.Err() == nil
			})
			if gw.reg.Len() == 0 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	select {
	case <-done:
		if n := gw.reg.Len(); n != 0 {
			return fmt.Errorf("adasense: drain interrupted with %d live session(s): %w", n, ctx.Err())
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("adasense: drain deadline with %d live session(s): %w", gw.reg.Len(), ctx.Err())
	}
}

// Draining reports whether Drain has begun.
func (gw *Gateway) Draining() bool { return gw.draining.Load() }

// Stats returns a point-in-time snapshot of the gateway's serving
// telemetry plus the live gauges (occupancy, capacity, drain state).
// Counters persist across model hot-swaps.
func (gw *Gateway) Stats() ServingStats {
	stage, fraction := gw.rolloutStageGauge()
	return ServingStats{
		Snapshot: gw.tel.Snapshot(),

		RolloutStage:    stage,
		RolloutFraction: fraction,
		ModelGeneration: gw.modelGen.Load(),

		SessionsLive:    gw.reg.Len(),
		SessionCapacity: gw.cfg.maxSessions,
		Draining:        gw.draining.Load(),

		Latency: gw.lat.Snapshot(),
	}
}

// WriteMetrics writes the gateway's serving telemetry to w in the
// Prometheus text exposition format — the payload behind a /metrics
// endpoint. Counters and gauges are label-free; the latency histograms
// carry a single route= or stage= label. Counters persist across model
// hot-swaps. The full series reference lives in docs/operations.md and
// docs/observability.md.
//
// Everything written here comes from one Stats() snapshot — the
// exporter never reads a live instrument.
func (gw *Gateway) WriteMetrics(w io.Writer) error {
	s := gw.Stats()
	e := telemetry.NewEncoder(w)
	e.Counter("adasense_sessions_opened_total", "Sessions minted by Open.", s.SessionsOpened)
	e.Counter("adasense_sessions_closed_total", "Sessions closed by their owner (Close/CloseSession/Drain).", s.SessionsClosed)
	e.Counter("adasense_sessions_evicted_total", "Sessions reclaimed by the idle-TTL sweep.", s.SessionsEvicted)
	e.Counter("adasense_batches_pushed_total", "Batches accepted by sessions.", s.BatchesPushed)
	e.Counter("adasense_events_emitted_total", "Classification events completed by pushes.", s.EventsEmitted)
	e.Counter("adasense_classify_calls_total", "One-shot stateless classifications.", s.ClassifyCalls)
	e.Counter("adasense_pool_hits_total", "Pipeline checkouts served from the pool.", s.PoolHits)
	e.Counter("adasense_pool_misses_total", "Pipeline checkouts that built a fresh pipeline.", s.PoolMisses)
	e.Counter("adasense_model_swaps_total", "Atomic model hot-swaps.", s.ModelSwaps)
	e.Counter("adasense_rate_limited_device_total", "Requests rejected at their device's token bucket.", s.RateLimitedDevice)
	e.Counter("adasense_rate_limited_global_total", "Requests rejected at the gateway-wide token bucket.", s.RateLimitedGlobal)
	e.Counter("adasense_auth_rejects_total", "Requests with a missing or wrong bearer token.", s.AuthRejects)
	e.Counter("adasense_forwarded_total", "Requests forwarded to their owning peer replica.", s.RequestsForwarded)
	e.Counter("adasense_replicated_swaps_total", "Model swaps successfully replicated to a peer replica.", s.SwapsReplicated)
	e.Counter("adasense_peer_errors_total", "Failed peer replica calls (forwards and swap replications).", s.PeerErrors)
	e.Counter("adasense_rebalances_total", "Membership changes applied (hash ring generations swapped in).", s.Rebalances)
	e.Counter("adasense_sessions_handed_off_total", "Sessions closed by a rebalance that moved their device to another replica.", s.SessionsHandedOff)
	e.Counter("adasense_stale_route_total", "Forwarded requests that arrived on a stale ring generation.", s.StaleRoutes)
	e.Counter("adasense_handoffs_stateful_total", "Sessions restored on this replica from a peer's state snapshot.", s.HandoffsStateful)
	e.Counter("adasense_handoffs_cold_total", "Sessions re-opened cold on this replica for an owned device with no live session.", s.HandoffsCold)
	e.Counter("adasense_rollout_canary_classifies_total", "Classification events served by an active rollout's canary arm.", s.RolloutCanaryClassifies)
	e.Counter("adasense_rollouts_promoted_total", "Rollouts completed: the canary passed every stage and became the incumbent.", s.RolloutsPromoted)
	e.Counter("adasense_rollouts_rolled_back_total", "Rollouts ended in rollback (health gate or operator abort).", s.RolloutsRolledBack)
	e.Counter("adasense_model_catchups_total", "Models pulled from a peer because a request revealed a newer fleet generation.", s.ModelCatchups)
	e.Gauge("adasense_rollout_stage", "Active rollout's stage index (-1 while no rollout is observing).", float64(s.RolloutStage))
	e.Gauge("adasense_rollout_fraction", "Active rollout's cohort fraction of the device-id space (0 while idle).", s.RolloutFraction)
	e.Gauge("adasense_model_generation", "Fleet-wide ordinal of the model this gateway serves.", float64(s.ModelGeneration))
	e.Gauge("adasense_pool_hit_rate", "Pipeline pool hit rate (hits / checkouts).", s.PoolHitRate)
	e.Gauge("adasense_sessions_live", "Currently open sessions (registry occupancy).", float64(s.SessionsLive))
	e.Gauge("adasense_session_capacity", "Configured max-sessions cap (0 = unlimited).", float64(s.SessionCapacity))
	draining := 0.0
	if s.Draining {
		draining = 1
	}
	e.Gauge("adasense_draining", "1 once graceful drain has begun, else 0.", draining)
	routes := make([]telemetry.HistogramSeries, 0, telemetry.NumRoutes)
	for r := telemetry.Route(0); r < telemetry.NumRoutes; r++ {
		routes = append(routes, telemetry.HistogramSeries{LabelValue: r.String(), H: s.Latency.Routes[r.String()]})
	}
	e.Histogram("adasense_request_duration_seconds", "End-to-end request latency by route class.", "route", routes)
	stages := make([]telemetry.HistogramSeries, 0, telemetry.NumStages)
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		stages = append(stages, telemetry.HistogramSeries{LabelValue: st.String(), H: s.Latency.Stages[st.String()]})
	}
	e.Histogram("adasense_stage_duration_seconds", "Serving-pipeline stage latency by stage.", "stage", stages)
	return e.Err()
}

// GatewaySession is one device's session as served through a Gateway: a
// Session pinned to the service that minted it, plus the registry
// bookkeeping (idle tracking, eviction, id lookup). Unlike a bare
// Session, a GatewaySession serializes its own method calls, so it may be
// driven from multiple goroutines (e.g. whichever HTTP handler holds the
// device's next batch).
type GatewaySession struct {
	id string
	gw *Gateway

	mu     sync.Mutex
	sess   *Session
	closed bool
}

// ID returns the session id.
func (s *GatewaySession) ID() string { return s.id }

// Service returns the service the session is pinned to. After a
// SwapModel it keeps returning the minting service until Migrate.
func (s *GatewaySession) Service() *Service {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess == nil {
		return nil
	}
	return s.sess.svc
}

// Config returns the sensor configuration the session's device must
// currently sample at.
func (s *GatewaySession) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess == nil { // lost the race to a failed Open build
		return Config{}
	}
	return s.sess.Config()
}

// Energy returns the session's accumulated energy ledger. Like the
// configuration it survives Migrate and stateful handoff.
func (s *GatewaySession) Energy() EnergyEstimate {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess == nil {
		return EnergyEstimate{}
	}
	return s.sess.Energy()
}

// Push feeds a batch of raw readings and returns the classification
// events it completed, refreshing the session's idle timer. It returns
// ErrSessionClosed after Close or eviction, a *BatchError for a batch
// that fails Batch.Validate, and ErrRateLimited when the device is over
// its token budget (the batch is not applied — the device should back
// off and resample, not retry the same window). A refused batch is
// checked before the rate limit, so it spends no token and does not
// count as an error against the device's rollout arm.
func (s *GatewaySession) Push(b *Batch) ([]Event, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrSessionClosed, s.id)
	}
	if err := b.Validate(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if err := s.gw.allow(s.id); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	events, err := s.sess.Push(b)
	// Snapshot the pinned service before unlocking so rollout health is
	// attributed to the arm that actually served this push, then feed
	// the rollout outside the session lock: evaluation may win a stage
	// transition whose re-pin sweep takes session mutexes.
	svc := s.sess.svc
	s.mu.Unlock()
	if err != nil {
		s.gw.rolloutObserveError(svc)
		return nil, err
	}
	s.gw.reg.Touch(s.id)
	s.gw.rolloutObserve(svc, events)
	s.gw.rolloutMaybeTick()
	return events, nil
}

// Reset returns the session's engine and controller to their initial
// state.
func (s *GatewaySession) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess != nil {
		s.sess.Reset()
	}
}

// Snapshot captures the session's live state (adaptation trajectory,
// window remainder, energy estimate, pinned model generation) without
// disturbing it; the session keeps serving. It is the sending half of a
// stateful handoff and the payload behind GET /v1/session-state.
func (s *GatewaySession) Snapshot() (*SessionState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.sess == nil {
		return nil, fmt.Errorf("%w: %q", ErrSessionClosed, s.id)
	}
	return s.sess.Snapshot()
}

// Migrate re-pins the session to the gateway's current service (or, for
// a device inside an active rollout's cohort, the canary service). It is
// the opt-in half of the hot-swap contract: after a SwapModel, a live
// session keeps its old model until it migrates (or closes). Migration
// mints a fresh engine and controller on the new service and carries the
// adaptation state (SPOT trajectory, window remainder, energy estimate)
// across when the new service's geometry and controller flavor accept
// it; a rejected snapshot falls back to the old contract — restarting
// from the top configuration, as after close-and-reopen — while keeping
// the id registered and the idle timer running. Migrating while already
// current is a no-op.
func (s *GatewaySession) Migrate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: %q", ErrSessionClosed, s.id)
	}
	cur := s.gw.serviceFor(s.id)
	if cur == s.sess.svc {
		return nil
	}
	fresh, err := cur.OpenSession(s.id)
	if err != nil {
		return err
	}
	// The generation pin is deliberately not enforced here: unlike a
	// cross-replica restore, a migrate is an explicit opt-in onto the
	// new model, and the adaptation trajectory (activity labels, sensor
	// configs) is model-independent. Session.Restore leaves the fresh
	// session Reset on rejection, which IS the fallback.
	if st, err := s.sess.Snapshot(); err == nil {
		_ = fresh.Restore(st)
	}
	s.sess.Close()
	s.sess = fresh
	return nil
}

// Close unregisters the session and releases its resources. Closing
// twice (or closing a session the sweeper already evicted) is a no-op.
func (s *GatewaySession) Close() {
	if _, closed := s.close(false); closed {
		s.gw.tel.SessionsClosed.Add(1)
	}
}

// close is the one close step behind Close, the eviction sweep and a
// rebalance handoff. It closes the session after its in-flight push,
// then drops the id's registration if it is still this session's: the
// value compare spares an id that an eviction sweep already removed and
// a new session re-registered. With snapshot set it also captures the
// session's state in the same critical section, so no push can land
// between the snapshot and the close — the snapshot is exact (nil if it
// could not be taken; the device then re-opens cold). No network
// happens under the lock; shipping the snapshot is the caller's job. It
// reports whether this call closed the session (false if another close
// got there first); each caller counts its own telemetry series.
func (s *GatewaySession) close(snapshot bool) (*SessionState, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	var st *SessionState
	if snapshot {
		st, _ = s.sess.Snapshot()
	}
	s.closed = true
	s.sess.Close()
	s.mu.Unlock()
	s.gw.reg.CompareAndRemove(s.id, s)
	return st, true
}
