package adasense

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adasense/internal/hashring"
	"adasense/internal/membership"
	"adasense/internal/reqtrace"
	"adasense/internal/telemetry"
)

// stampTrace copies a request trace's identity onto an outbound peer
// call: the id as-is and the hop count advanced by one, so the receiving
// replica's spans join the same fleet-wide trace one hop downstream. A
// nil trace (an untraced internal call) stamps nothing; the receiver
// mints its own id.
func stampTrace(h http.Header, tr *reqtrace.Trace) {
	if tr == nil || tr.ID == "" {
		return
	}
	h.Set(TraceHeader, tr.ID)
	h.Set(TraceHopHeader, strconv.Itoa(tr.Hop+1))
}

// Federation headers on the HTTP/JSON wire. ForwardedHeader marks a
// request a replica has already forwarded once; the receiver serves it
// locally even if its own ring disagrees, so a transient membership skew
// between replicas cannot bounce a request forever. ReplicatedHeader
// marks a model upload fanned out by a peer's Cluster.SwapModel; the
// receiver applies it to its local gateway only instead of re-replicating,
// so one fleet-wide push cannot echo.
// ModelGenHeader carries the sender's model generation (a decimal
// uint64) on forwards, replicated pushes and GET /v1/model responses; a
// receiver that sees a generation ahead of its own pulls the newer model
// from the sender (see Cluster.ObserveModelGen).
// TraceHeader carries the fleet-wide request trace id (lowercase hex,
// minted at first ingress) and TraceHopHeader the decimal hop count, so
// one request keeps one identity across forwards, replicated pushes and
// model catch-up pulls; the receiving replica's spans land in its own
// flight recorder under the same id.
const (
	ForwardedHeader  = "X-Adasense-Forwarded"
	ReplicatedHeader = "X-Adasense-Replicated"
	ModelGenHeader   = "X-Adasense-Model-Gen"
	TraceHeader      = "X-Adasense-Trace"
	TraceHopHeader   = "X-Adasense-Trace-Hop"
)

// ErrNotClusterMember reports a NewCluster whose self id is missing from
// the replica set.
var ErrNotClusterMember = errors.New("adasense: self id not in the replica set")

// Replica identifies one gateway replica of a federated fleet: a stable
// id (its position on the hash ring) and the base URL peers reach it at.
// The self replica's URL may be empty — a cluster never calls itself
// over the wire.
type Replica struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// A replicated push (model swap, rollout stage, session state) that
// fails transiently is retried swapRetries times after its first
// attempt, retry k waiting k×swapRetryBackoff: 250 ms, then 500 ms, so
// the schedule absorbs restart-sized peer outages instead of burning
// every attempt in the same millisecond.
const (
	swapRetries      = 2
	swapRetryBackoff = 250 * time.Millisecond
)

// clusterConfig holds the federation policy a Cluster applies over its
// gateway.
type clusterConfig struct {
	token string
}

// ClusterOption configures a Cluster.
type ClusterOption func(*clusterConfig) error

// WithPeerAuth sets the bearer token presented on peer calls that carry
// no incoming Authorization header of their own (SwapModel replication).
// Fleets reuse one token: the same value passed to every replica's
// WithAuth.
func WithPeerAuth(token string) ClusterOption {
	return func(c *clusterConfig) error {
		c.token = token
		return nil
	}
}

// clusterView is one immutable generation of the cluster's membership:
// the rebuilt hash ring plus the replica table behind it. Views are
// swapped atomically on a membership change, so the per-request Route
// path reads one pointer and never sees a half-applied rebalance; the
// generation tag makes a stale view detectable wherever a routing
// decision outlives the view it was made on.
type clusterView struct {
	generation uint64
	ring       *hashring.Ring
	replicas   map[string]Replica
	// departed holds the members of the previous view that this one
	// dropped. A replica hands sessions off precisely because the new
	// ring excludes it, so the session-state routes must recognize the
	// previous generation's members where the forwarding routes do not
	// (see IsHandoffPeer).
	departed map[string]Replica
}

// Cluster federates gateway replicas into one fleet: a consistent-hash
// ring assigns every device id to exactly one replica, requests that
// arrive at the wrong replica are forwarded to their owner over the
// existing HTTP/JSON wire, and one model upload is replicated to every
// replica so the whole fleet retrains together.
//
// Placement is a pure function of the member set (see
// adasense/internal/hashring), so replicas agree on ownership with zero
// coordination traffic. Membership is either fixed for the cluster's
// lifetime (NewCluster over a static replica list) or driven by a
// discovery source (NewClusterWithSource): each published snapshot
// atomically swaps in a rebuilt, generation-tagged ring and hands off
// the local sessions whose devices moved to another owner. All methods
// are safe for concurrent use.
type Cluster struct {
	self   string
	gw     *Gateway
	client *http.Client
	token  string

	// view is the current membership generation; applyMu serializes
	// snapshot application (the subscription goroutine plus any direct
	// callers) so handoffs for one generation finish dispatching before
	// the next generation's are computed. applyErr holds the most
	// recent snapshot-validation failure (nil after a clean apply),
	// surfaced by MembershipErr.
	view     atomic.Pointer[clusterView]
	applyMu  sync.Mutex
	applyErr atomic.Value // applyError

	// pulling guards the single-flight model catch-up pull (see
	// ObserveModelGen in cluster_rollout.go).
	pulling atomic.Bool

	src       membership.Source
	done      chan struct{}
	closeOnce sync.Once
}

// applyError wraps an error for atomic.Value (which needs a single
// concrete stored type, including for the nil-error case).
type applyError struct{ err error }

// newClusterCore validates the shared constructor arguments and builds
// the cluster shell every constructor finishes from its own view.
func newClusterCore(gw *Gateway, self string, opts []ClusterOption) (*Cluster, error) {
	if gw == nil {
		return nil, fmt.Errorf("adasense: NewCluster needs a gateway")
	}
	if self == "" {
		return nil, fmt.Errorf("adasense: NewCluster needs a non-empty self id")
	}
	var cfg clusterConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return &Cluster{
		self: self,
		gw:   gw,
		// One timeout bounds every peer call: forwards, replicated
		// pushes and model catch-up pulls.
		client: &http.Client{Timeout: 10 * time.Second},
		token:  cfg.token,
	}, nil
}

// buildView turns a membership snapshot into an immutable cluster view:
// a fresh ring over the member ids plus the validated replica table
// (peer entries need a valid http(s) base URL; the self entry's URL is
// ignored — a cluster never calls itself over the wire).
func (c *Cluster) buildView(snap membership.Snapshot) (*clusterView, error) {
	if len(snap.Members) == 0 {
		return nil, fmt.Errorf("adasense: membership snapshot has no replicas")
	}
	ids := make([]string, len(snap.Members))
	replicas := make(map[string]Replica, len(snap.Members))
	for i, m := range snap.Members {
		rep := Replica{ID: m.ID, URL: m.URL}
		if _, dup := replicas[rep.ID]; dup {
			return nil, fmt.Errorf("adasense: duplicate replica id %q", rep.ID)
		}
		if rep.ID != c.self {
			u, err := url.Parse(rep.URL)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return nil, fmt.Errorf("adasense: replica %q needs an http(s) base URL, got %q", rep.ID, rep.URL)
			}
			rep.URL = strings.TrimSuffix(rep.URL, "/")
		}
		ids[i] = rep.ID
		replicas[rep.ID] = rep
	}
	ring, err := hashring.New(ids)
	if err != nil {
		return nil, fmt.Errorf("adasense: %w", err)
	}
	return &clusterView{generation: snap.Generation, ring: ring, replicas: replicas}, nil
}

// NewCluster federates gw as replica self among a fixed replica list
// (which must include self; peer entries need a valid http(s) base
// URL). The gateway's telemetry gains the federation counters, surfaced
// through Gateway.Stats and /metrics. For discovery-driven membership
// use NewClusterWithSource — NewCluster is exactly that over a
// membership.StaticSource, so static and discovered fleets share one
// construction path.
func NewCluster(gw *Gateway, self string, replicas []Replica, opts ...ClusterOption) (*Cluster, error) {
	// A static cluster must contain itself: there is no later snapshot
	// that could bring this replica into the fleet.
	member := false
	members := make([]membership.Member, len(replicas))
	for i, rep := range replicas {
		member = member || rep.ID == self
		members[i] = membership.Member{ID: rep.ID, URL: rep.URL}
	}
	if self != "" && !member {
		return nil, fmt.Errorf("%w: %q", ErrNotClusterMember, self)
	}
	src, err := membership.NewStatic(members)
	if err != nil {
		return nil, fmt.Errorf("adasense: %w", err)
	}
	return NewClusterWithSource(gw, self, src, opts...)
}

// NewClusterWithSource federates gw as replica self over a dynamic
// membership source (see adasense/internal/membership): the source's
// current snapshot becomes the initial ring, and every later snapshot
// atomically swaps in a rebuilt, generation-tagged view, hands off the
// local sessions whose devices changed owner (each closed after its
// in-flight push; the device is transparently re-adopted by its new
// owner on next contact), and advances the rebalance telemetry.
//
// Unlike NewCluster, self need not appear in the current snapshot: a
// replica waiting for discovery to announce it (or already retired from
// the fleet) owns no devices and serves as a pure forwarder until a
// snapshot includes it. Close stops the subscription and closes the
// source; on a construction error the source is closed too, so a
// failed constructor never leaks a running poller.
func NewClusterWithSource(gw *Gateway, self string, src membership.Source, opts ...ClusterOption) (*Cluster, error) {
	if src == nil {
		return nil, fmt.Errorf("adasense: NewClusterWithSource needs a membership source")
	}
	c, err := newClusterCore(gw, self, opts)
	if err != nil {
		src.Close()
		return nil, err
	}
	view, err := c.buildView(src.Current())
	if err != nil {
		src.Close()
		return nil, err
	}
	c.view.Store(view)
	c.applyErr.Store(applyError{})
	// Locally decided rollout stage transitions replicate to every peer
	// through the cluster's retry plumbing, so the fleet agrees on the
	// current stage even when only one replica's traffic tripped a gate.
	gw.rolloutNotify = c.replicateTransition
	c.src = src
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		for snap := range src.Updates() {
			// An invalid snapshot (bad peer URL, duplicate id) keeps the
			// last good view serving; the rejection is surfaced through
			// MembershipErr, since the source itself considered the
			// snapshot well-formed.
			c.applySnapshot(snap)
		}
	}()
	return c, nil
}

// MembershipErr returns the most recent membership snapshot the cluster
// rejected (an entry the source accepted but the cluster cannot route
// on — a peer without an http(s) URL, a duplicate id), or nil after a
// cleanly applied snapshot. The serving view is unaffected by
// rejections; this is the observability hook for a fleet whose
// discovery data has gone bad while the last good membership keeps
// serving. (A file-level read or parse failure is reported by the
// source's own Err hook instead.)
func (c *Cluster) MembershipErr() error {
	if v, ok := c.applyErr.Load().(applyError); ok {
		return v.err
	}
	return nil
}

// applySnapshot swaps in the view built from snap and hands off the
// local sessions the new ring assigns elsewhere. Snapshots at or behind
// the current generation are ignored, so a late-delivered update cannot
// roll the ring back.
func (c *Cluster) applySnapshot(snap membership.Snapshot) error {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	if snap.Generation <= c.view.Load().generation {
		return nil
	}
	view, err := c.buildView(snap)
	if err != nil {
		c.applyErr.Store(applyError{err: err})
		return err
	}
	c.applyErr.Store(applyError{})
	// Remember who just left: their in-flight state handoffs must still
	// authenticate as fleet traffic on this replica (one generation of
	// grace — a second change forgets them).
	old := c.view.Load()
	for id, rep := range old.replicas {
		if _, still := view.replicas[id]; !still {
			if view.departed == nil {
				view.departed = make(map[string]Replica)
			}
			view.departed[id] = rep
		}
	}
	c.view.Store(view)
	c.gw.tel.Rebalances.Add(1)
	// Session handoff: every local session whose device the new ring
	// assigns to another replica is snapshotted, closed, and its state
	// shipped to the new owner — each on its own goroutine, after its
	// in-flight push (sessions serialize their own calls), so one long
	// push delays only its own device. If the transfer cannot happen
	// (snapshot failed, new owner unknown, unreachable or refusing the
	// state) the session is simply closed and the new owner adopts
	// the device cold on its next contact.
	var departing []*GatewaySession
	c.gw.reg.Range(func(id string, gs *GatewaySession) bool {
		if owner, ok := view.ring.Lookup(id); !ok || owner != c.self {
			departing = append(departing, gs)
		}
		return true
	})
	for _, gs := range departing {
		go c.handOff(gs)
	}
	return nil
}

// handOff dispatches one departing session after a rebalance: close it
// locally and, when the new owner is a known peer, ship its state
// snapshot so the device's adaptation trajectory survives the move.
// Every failure degrades to the cold path — the session is already
// closed, so the new owner re-opens it from the top configuration on
// the device's next contact. That includes a receiver refusing the
// snapshot (a different model generation or an ADSS layout its build
// cannot read answers 4xx, which is not retried), so replicas running
// skewed builds degrade to cold handoffs without any configuration.
func (c *Cluster) handOff(gs *GatewaySession) {
	// Re-check against the live view before closing: under a membership
	// flap, a later snapshot may have restored this device's ownership
	// while the goroutine waited to run, and a session the current ring
	// assigns here must not be torn down by a stale handoff. (That later
	// snapshot's own sweep covers anything this one skips.)
	view := c.view.Load()
	owner, ok := view.ring.Lookup(gs.id)
	if ok && owner == c.self {
		return
	}
	rep, known := view.replicas[owner]
	st, closed := gs.close(known)
	if !closed {
		return // lost the race with a concurrent close
	}
	c.gw.tel.SessionsHandedOff.Add(1)
	if st == nil {
		return // new owner unknown, or the snapshot failed; the new owner adopts the device cold
	}
	body, err := st.AppendBinary(make([]byte, 0, st.EncodedLen()))
	if err != nil {
		return
	}
	// The transfer rides the replicated-push path (peer auth, trace
	// stamping, transient-only retries) on a detached context: the
	// rebalance has already committed locally, so a canceled caller must
	// not strand the state in flight. A failed or rejected PUT needs no
	// cleanup — the device adopts cold at its new owner, exactly as if
	// the snapshot had never been taken.
	c.pushBytes(context.Background(), http.MethodPut, rep,
		"/v1/session-state/"+url.PathEscape(gs.id), "application/octet-stream", body)
}

// Close stops the cluster's membership subscription and closes its
// source (a no-op stream on a static cluster). Close is idempotent,
// safe to call concurrently, and every call returns only once the
// subscription goroutine has exited. The cluster keeps serving its last
// view after Close — routing and forwarding still work, membership just
// stops updating.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() { c.src.Close() })
	<-c.done
}

// Self returns this replica's id.
func (c *Cluster) Self() string { return c.self }

// Gateway returns the local gateway the cluster fronts.
func (c *Cluster) Gateway() *Gateway { return c.gw }

// Generation returns the membership generation the cluster currently
// routes on. It increases with every applied snapshot (a static cluster
// stays at 1 forever), so two routing decisions can be compared for
// staleness across a rebalance.
func (c *Cluster) Generation() uint64 { return c.view.Load().generation }

// Members returns every replica of the current membership view, sorted
// by id.
func (c *Cluster) Members() []Replica {
	view := c.view.Load()
	members := make([]Replica, 0, len(view.replicas))
	for _, rep := range view.replicas {
		members = append(members, rep)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	return members
}

// Route returns the replica owning device and whether that is this
// replica. Every replica of a fleet computes the same answer for the
// same device and member set, so a misdirected request needs at most
// one forwarding hop (a fleet mid-rebalance may disagree for one poll
// interval; the forwarding loop guard bounds that to one extra hop).
// The local-hit path performs no allocations.
func (c *Cluster) Route(device string) (Replica, bool) {
	view := c.view.Load()
	owner, _ := view.ring.Lookup(device) // every view has ≥ 1 member
	return view.replicas[owner], owner == c.self
}

// Owns reports whether this replica owns device.
func (c *Cluster) Owns(device string) bool {
	_, local := c.Route(device)
	return local
}

// IsPeer reports whether id names a current cluster member other than
// this replica. HTTP front ends use it to validate the federation wire
// markers: a ForwardedHeader/ReplicatedHeader whose value is not a
// known peer id did not come from this fleet and must not bypass
// routing or replication.
func (c *Cluster) IsPeer(id string) bool {
	_, ok := c.view.Load().replicas[id]
	return ok && id != c.self
}

// IsHandoffPeer reports whether id names a current peer or a member the
// most recent membership change dropped. The session-state routes use
// this wider check: state arrives from a replica that is, by
// definition, no longer in the ring — it hands off precisely because
// the new view excludes it. The grace lasts one generation; a second
// membership change forgets the departed member.
func (c *Cluster) IsHandoffPeer(id string) bool {
	if c.IsPeer(id) {
		return true
	}
	_, ok := c.view.Load().departed[id]
	return ok && id != c.self
}

// MarkStaleRoute records one stale routing decision: a request arrived
// here carrying a peer's forwarding marker although the current ring
// says this replica is not the device's owner — the sender routed on a
// different membership generation. The request is still served locally
// (the loop guard), but the counter surfaces how long a fleet stays
// skewed after a rebalance.
func (c *Cluster) MarkStaleRoute() { c.gw.tel.StaleRoutes.Add(1) }

// Forward proxies r to peer to, relaying the response (status, content
// type, body) back through w. The incoming Authorization header travels
// with the request — fleets share one bearer token, so the owning
// replica re-authorizes the original credentials — and ForwardedHeader
// is stamped so the receiver serves the request locally rather than
// forwarding again. The request body is consumed either way.
//
// A non-nil error means nothing was written to w, so the caller still
// owns the response: ErrRateLimited when this replica's global bucket
// is empty (typically answered 429), otherwise the peer could not be
// reached (typically answered 502). Once the peer has answered, Forward
// relays whatever it said and returns nil — a client that disconnects
// mid-relay is its own problem, not a peer error.
func (c *Cluster) Forward(w http.ResponseWriter, r *http.Request, to Replica) error {
	if to.ID == c.self {
		return fmt.Errorf("adasense: replica %q cannot forward to itself", c.self)
	}
	// A forward is outbound work this replica performs on the device's
	// behalf: it spends one token from the local global bucket, so a
	// flood of misdirected traffic cannot turn a rate-limited replica
	// into an unbounded proxy. The device's own budget is charged at
	// its owner, exactly once.
	if err := c.gw.allowGlobal(); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, to.URL+r.URL.RequestURI(), r.Body)
	if err != nil {
		// Construction failed locally; no peer was dialed, so the
		// peer-error series stays out of it.
		return fmt.Errorf("adasense: forwarding to %q: %w", to.ID, err)
	}
	req.ContentLength = r.ContentLength
	if v := r.Header.Get("Content-Type"); v != "" {
		req.Header.Set("Content-Type", v)
	}
	if v := r.Header.Get("Authorization"); v != "" {
		req.Header.Set("Authorization", v)
	}
	req.Header.Set(ForwardedHeader, c.self)
	// Advertise the local model generation so a peer lagging the fleet
	// (e.g. one that joined after a push) notices and catches up.
	req.Header.Set(ModelGenHeader, strconv.FormatUint(c.gw.ModelGeneration(), 10))
	tr := reqtrace.FromContext(r.Context())
	stampTrace(req.Header, tr)
	endSpan := tr.Span("forward")
	hopStart := time.Now()
	resp, err := c.client.Do(req)
	endSpan()
	c.gw.lat.ObserveStage(telemetry.StageForward, time.Since(hopStart))
	if err != nil {
		// A forward that died because the requesting device went away
		// is the client's failure, not the peer's; the peer-error
		// series must only indict peers, or its documented alert pages
		// on ordinary flaky clients.
		if r.Context().Err() == nil {
			c.gw.tel.PeerErrors.Add(1)
		}
		return fmt.Errorf("adasense: forwarding to %q: %w", to.ID, err)
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "WWW-Authenticate"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	c.gw.tel.RequestsForwarded.Add(1)
	io.Copy(w, resp.Body)
	return nil
}

// SwapResult reports one replica's outcome of a replicated model swap.
type SwapResult struct {
	// Replica is the replica id; Attempts is how many tries it took
	// (1 on first-attempt success). Err is nil on success.
	Replica  string
	Attempts int
	Err      error
}

// SwapModel replicates a model container to every replica of the
// cluster: the local gateway swaps via Gateway.SwapModel, and each peer
// receives the bytes on POST <peer>/v1/model with ReplicatedHeader set
// (so peers apply locally instead of re-replicating) and the cluster's
// bearer token. Peers are pushed concurrently, each retried on the fixed
// transient-failure schedule (two retries, after 250 ms and 500 ms);
// results come back per replica, sorted by id, with the joined error of
// every failure (nil when the whole fleet swapped).
//
// A ctx already canceled when SwapModel is called aborts the whole
// operation before any replica is touched. Once the local swap commits,
// the peer fan-out is detached from ctx: cancellation mid-push (an
// uploader disconnecting) does not strand peers on the old model — each
// peer call remains bounded by the peer client's timeout and the retry
// count.
//
// The model is validated locally before anything is pushed: an invalid
// container changes no replica. A partial failure leaves the fleet
// mixed — the caller retries the failed replicas (the swap is
// idempotent) or drops them from rotation.
//
// Fleet-wide swaps are not ordered across entry replicas: two
// concurrent uploads entering through different replicas can interleave
// so that replicas end on different models (with equal swap counters).
// Serialize model deploys through one entry point; re-pushing the
// intended container heals a crossed fleet.
func (c *Cluster) SwapModel(ctx context.Context, model []byte) ([]SwapResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys, err := LoadSystem(bytes.NewReader(model))
	if err != nil {
		return nil, err
	}
	if err := c.gw.SwapModel(sys); err != nil {
		return nil, err
	}
	// The local swap has committed: from here the fleet must converge,
	// so the peer fan-out is detached from ctx's cancellation (an
	// uploader that disconnects mid-push must not strand peers on the
	// old model). Each peer call stays bounded by the peer client's
	// timeout and the retry count.
	ctx = context.WithoutCancel(ctx)
	members := c.Members()
	results := make([]SwapResult, len(members))
	done := make(chan int, len(members))
	for i, rep := range members {
		if rep.ID == c.self {
			results[i] = SwapResult{Replica: rep.ID, Attempts: 1}
			done <- i
			continue
		}
		go func(i int, rep Replica) {
			results[i] = c.pushModel(ctx, rep, model)
			done <- i
		}(i, rep)
	}
	for range members {
		<-done
	}
	errs := make([]error, 0, len(members))
	for _, res := range results {
		if res.Err != nil {
			errs = append(errs, fmt.Errorf("replica %q (%d attempts): %w", res.Replica, res.Attempts, res.Err))
		}
	}
	return results, errors.Join(errs...)
}

// pushModel delivers one model upload to one peer with counted retries.
func (c *Cluster) pushModel(ctx context.Context, rep Replica, model []byte) SwapResult {
	res := c.pushBytes(ctx, http.MethodPost, rep, "/v1/model", "application/octet-stream", model)
	if res.Err == nil {
		c.gw.tel.SwapsReplicated.Add(1)
	}
	return res
}

// pushBytes delivers one replicated payload to one peer with counted
// retries, stamping ReplicatedHeader (so the receiver applies locally
// instead of re-replicating), the sender's model generation and the
// cluster's bearer token. Only transient failures (transport errors,
// 5xx) are retried: a 4xx is the peer deterministically rejecting this
// request — a stale token, a container its build cannot load — and
// repeating it would only inflate the peer-error counter and delay the
// fleet-wide report. The model-swap, rollout-start, stage-transition
// and session-state fan-outs all ride this one delivery path.
func (c *Cluster) pushBytes(ctx context.Context, method string, rep Replica, path, contentType string, body []byte) SwapResult {
	res := SwapResult{Replica: rep.ID}
	for attempt := 1; attempt <= 1+swapRetries; attempt++ {
		res.Attempts = attempt
		var retryable bool
		retryable, res.Err = c.pushOnce(ctx, method, rep, path, contentType, body)
		if res.Err == nil {
			return res
		}
		c.gw.tel.PeerErrors.Add(1)
		if !retryable {
			return res
		}
		if attempt <= swapRetries {
			// Linear backoff so the retry budget spans restart-sized
			// outages. The fan-out context is detached (the fleet must
			// converge once the local swap committed), so a plain sleep
			// cannot strand a canceled caller.
			time.Sleep(time.Duration(attempt) * swapRetryBackoff)
		}
	}
	return res
}

func (c *Cluster) pushOnce(ctx context.Context, method string, rep Replica, path, contentType string, body []byte) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, method, rep.URL+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(ReplicatedHeader, c.self)
	req.Header.Set(ModelGenHeader, strconv.FormatUint(c.gw.ModelGeneration(), 10))
	stampTrace(req.Header, reqtrace.FromContext(ctx))
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return resp.StatusCode >= 500, fmt.Errorf("peer answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return false, nil
}
