// Package telemetry provides the serving layer's observability
// primitives: a fixed set of allocation-free atomic counters covering the
// gateway's session lifecycle (opened/evicted/closed), the data path
// (batches pushed, events emitted, one-shot classifications), the
// pipeline pool (hits/misses), model hot-swaps and federation traffic
// (forwarded requests, replicated swaps, peer errors).
//
// Counters is safe for concurrent use from any number of goroutines; each
// counter is an atomic.Uint64 field whose Add is a single atomic add with
// no allocation, cheap enough for the per-batch hot path. Snapshot copies a
// consistent-enough point-in-time view for /metrics endpoints: each field
// is read atomically, but the set of fields is not one global atomic
// snapshot (counters may advance between field reads), which is the usual
// and acceptable contract for monitoring counters.
package telemetry

import "sync/atomic"

// Counters is the serving layer's counter set. The zero value is ready to
// use. Counters must not be copied after first use. Each field is named
// after the Snapshot field it fills, and callers count with its Add.
type Counters struct {
	// Session lifecycle: mints, caller-initiated closes and idle-TTL
	// evictions.
	SessionsOpened  atomic.Uint64
	SessionsClosed  atomic.Uint64
	SessionsEvicted atomic.Uint64

	// Data path: batches accepted by a session, batches refused by the
	// gateway's batch check (pushed or classified), the classification
	// events accepted batches completed, and stateless one-shot
	// classifications.
	BatchesPushed  atomic.Uint64
	BatchesRefused atomic.Uint64
	EventsEmitted  atomic.Uint64
	ClassifyCalls  atomic.Uint64

	// Pipeline checkouts served from the pool or built fresh, and atomic
	// model hot-swaps.
	PoolHits   atomic.Uint64
	PoolMisses atomic.Uint64
	ModelSwaps atomic.Uint64

	// Requests rejected at their device's token bucket or at the
	// gateway-wide one, and requests presenting a missing or wrong
	// bearer token.
	RateLimitedDevice atomic.Uint64
	RateLimitedGlobal atomic.Uint64
	AuthRejects       atomic.Uint64

	// Federation, advanced by the Cluster layer: requests forwarded to
	// their owning peer replica, model swaps successfully replicated to
	// a peer, and failed peer calls (forwards, swap replications,
	// catch-up pulls). All zero on an unfederated gateway.
	RequestsForwarded atomic.Uint64
	SwapsReplicated   atomic.Uint64
	PeerErrors        atomic.Uint64

	// Dynamic membership, advanced by a source-driven Cluster:
	// membership changes applied (hash ring generations swapped in),
	// sessions closed by their departing owner because a rebalance moved
	// their device to another replica, and forwarded requests whose
	// sender routed on a different ring generation than the local one.
	// All zero on a static or standalone gateway.
	Rebalances        atomic.Uint64
	SessionsHandedOff atomic.Uint64
	StaleRoutes       atomic.Uint64

	// Stateful handoff, both receiver-side: sessions restored from a
	// peer's ADSS state snapshot (the device's adaptation trajectory
	// survived the move), and sessions re-opened cold for an owned
	// device with no live session (rebalance fallback and post-eviction
	// reconnects).
	HandoffsStateful atomic.Uint64
	HandoffsCold     atomic.Uint64

	// Rollouts: classification events served by a canary arm, rollouts
	// promoted to incumbent, rollouts ended in rollback (health gate or
	// operator abort), and models pulled from a peer because a request
	// revealed a newer fleet model generation. All zero on a gateway
	// that never canaries.
	RolloutCanaryClassifies atomic.Uint64
	RolloutsPromoted        atomic.Uint64
	RolloutsRolledBack      atomic.Uint64
	ModelCatchups           atomic.Uint64
}

// Snapshot is a point-in-time copy of Counters, field for field, plus
// the derived pool hit rate.
type Snapshot struct {
	SessionsOpened  uint64 `json:"sessions_opened"`
	SessionsClosed  uint64 `json:"sessions_closed"`
	SessionsEvicted uint64 `json:"sessions_evicted"`
	BatchesPushed   uint64 `json:"batches_pushed"`
	BatchesRefused  uint64 `json:"batches_refused"`
	EventsEmitted   uint64 `json:"events_emitted"`
	ClassifyCalls   uint64 `json:"classify_calls"`
	PoolHits        uint64 `json:"pool_hits"`
	PoolMisses      uint64 `json:"pool_misses"`
	ModelSwaps      uint64 `json:"model_swaps"`

	RateLimitedDevice uint64 `json:"rate_limited_device"`
	RateLimitedGlobal uint64 `json:"rate_limited_global"`
	AuthRejects       uint64 `json:"auth_rejects"`

	RequestsForwarded uint64 `json:"requests_forwarded"`
	SwapsReplicated   uint64 `json:"swaps_replicated"`
	PeerErrors        uint64 `json:"peer_errors"`

	Rebalances        uint64 `json:"rebalances"`
	SessionsHandedOff uint64 `json:"sessions_handed_off"`
	StaleRoutes       uint64 `json:"stale_routes"`
	HandoffsStateful  uint64 `json:"handoffs_stateful"`
	HandoffsCold      uint64 `json:"handoffs_cold"`

	RolloutCanaryClassifies uint64 `json:"rollout_canary_classifies"`
	RolloutsPromoted        uint64 `json:"rollouts_promoted"`
	RolloutsRolledBack      uint64 `json:"rollouts_rolled_back"`
	ModelCatchups           uint64 `json:"model_catchups"`

	// PoolHitRate is PoolHits / (PoolHits + PoolMisses), or 0 before the
	// first checkout.
	PoolHitRate float64 `json:"pool_hit_rate"`
}

// Snapshot returns a copy of the current counter values.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{
		SessionsOpened:  c.SessionsOpened.Load(),
		SessionsClosed:  c.SessionsClosed.Load(),
		SessionsEvicted: c.SessionsEvicted.Load(),
		BatchesPushed:   c.BatchesPushed.Load(),
		BatchesRefused:  c.BatchesRefused.Load(),
		EventsEmitted:   c.EventsEmitted.Load(),
		ClassifyCalls:   c.ClassifyCalls.Load(),
		PoolHits:        c.PoolHits.Load(),
		PoolMisses:      c.PoolMisses.Load(),
		ModelSwaps:      c.ModelSwaps.Load(),

		RateLimitedDevice: c.RateLimitedDevice.Load(),
		RateLimitedGlobal: c.RateLimitedGlobal.Load(),
		AuthRejects:       c.AuthRejects.Load(),

		RequestsForwarded: c.RequestsForwarded.Load(),
		SwapsReplicated:   c.SwapsReplicated.Load(),
		PeerErrors:        c.PeerErrors.Load(),

		Rebalances:        c.Rebalances.Load(),
		SessionsHandedOff: c.SessionsHandedOff.Load(),
		StaleRoutes:       c.StaleRoutes.Load(),
		HandoffsStateful:  c.HandoffsStateful.Load(),
		HandoffsCold:      c.HandoffsCold.Load(),

		RolloutCanaryClassifies: c.RolloutCanaryClassifies.Load(),
		RolloutsPromoted:        c.RolloutsPromoted.Load(),
		RolloutsRolledBack:      c.RolloutsRolledBack.Load(),
		ModelCatchups:           c.ModelCatchups.Load(),
	}
	if total := s.PoolHits + s.PoolMisses; total > 0 {
		s.PoolHitRate = float64(s.PoolHits) / float64(total)
	}
	return s
}
