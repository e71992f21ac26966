package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The serving layer's latency histograms use one fixed log2-spaced
// bucket layout: bucket i covers durations up to 2^(minBucketShift+i)
// nanoseconds, so the NumBuckets buckets span ~1 µs (a limiter check)
// to ~8.6 s (a peer forward against a slow replica), with everything
// beyond falling into the implicit +Inf bucket. Log2 spacing makes
// Observe a shift-and-count-bits index computation — no search, no
// float math — which is what keeps it allocation-free and cheap enough
// for the per-batch hot path.
const (
	// NumBuckets is the number of finite histogram buckets.
	NumBuckets = 24
	// minBucketShift sets the first bucket's upper bound: 2^10 ns = 1.024 µs.
	minBucketShift = 10
)

// bucketBounds holds the finite buckets' upper bounds in seconds,
// ascending, computed once at init. Every Histogram shares this layout.
var bucketBounds = func() [NumBuckets]float64 {
	var b [NumBuckets]float64
	for i := range b {
		b[i] = float64(uint64(1)<<(minBucketShift+i)) / 1e9
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram safe for concurrent use:
// every bin is an independent atomic counter, so Observe is two atomic
// adds plus an atomic add into the sum — no locks, no allocation. The
// zero value is ready to use. A Histogram must not be copied after
// first use.
type Histogram struct {
	// bins[NumBuckets] is the overflow (+Inf-only) bin.
	bins  [NumBuckets + 1]atomic.Uint64
	count atomic.Uint64
	sum   atomic.Uint64 // nanoseconds
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	idx := 0
	if ns > 1<<minBucketShift {
		idx = bits.Len64((ns - 1) >> minBucketShift)
	}
	if idx > NumBuckets {
		idx = NumBuckets
	}
	h.bins[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Snapshot returns a point-in-time copy of the histogram. Like the
// counter snapshots, each field is read atomically but the set of reads
// is not one global atomic cut — the usual monitoring contract.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.bins {
		s.Bins[i] = h.bins[i].Load()
	}
	s.Count = h.count.Load()
	s.SumSeconds = float64(h.sum.Load()) / 1e9
	return s
}

// HistogramSnapshot is a point-in-time copy of one Histogram: per-bin
// (non-cumulative) counts — Bins[NumBuckets] is the overflow bin beyond
// the last finite bound — plus the total observation count and the sum
// of all observed durations in seconds. The Prometheus encoder derives
// the cumulative `le` series from it.
type HistogramSnapshot struct {
	Bins       [NumBuckets + 1]uint64 `json:"bins"`
	Count      uint64                 `json:"count"`
	SumSeconds float64                `json:"sum_seconds"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the recorded
// durations in seconds, interpolating linearly inside the containing
// log2 bucket — the same estimate Prometheus' histogram_quantile()
// would produce from the exported cumulative series. Observations in
// the overflow bin clamp to the last finite bound; an empty snapshot
// returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, n := range s.Bins {
		if n == 0 {
			continue
		}
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= NumBuckets {
			return bucketBounds[NumBuckets-1]
		}
		lower := 0.0
		if i > 0 {
			lower = bucketBounds[i-1]
		}
		upper := bucketBounds[i]
		// Position of the rank inside this bucket's n observations.
		into := rank - float64(cum-n)
		if into < 0 {
			into = 0
		}
		return lower + (upper-lower)*into/float64(n)
	}
	return bucketBounds[NumBuckets-1]
}

// Route classifies a gateway request for latency accounting: one class
// per serving route of the HTTP surface.
type Route uint8

// The gateway's route classes.
const (
	RouteOpen Route = iota
	RoutePush
	RouteGet
	RouteClassify
	RouteMigrate
	RouteClose
	RouteModel
	RouteRollout
	RouteState
	// NumRoutes bounds the Route enum; not a route itself.
	NumRoutes
)

var routeNames = [NumRoutes]string{
	"open", "push", "get", "classify", "migrate", "close", "model", "rollout",
	"state",
}

// String returns the route's label value as exposed on /metrics.
func (r Route) String() string {
	if int(r) < len(routeNames) {
		return routeNames[r]
	}
	return "unknown"
}

// Stage names one timed stage of the serving pipeline, cutting across
// routes: where a Route histogram says how slow a request was, a Stage
// histogram says where the time went.
type Stage uint8

// The serving pipeline's timed stages.
const (
	// StageAuth is the bearer-token check.
	StageAuth Stage = iota
	// StageRateLimit is the token-bucket admission check.
	StageRateLimit
	// StageRoute is the consistent-hash ring ownership decision.
	StageRoute
	// StageForward is one full proxy hop to the owning peer replica.
	StageForward
	// StageExtract is feature extraction over one classification window.
	StageExtract
	// StageClassify is the neural-network forward pass.
	StageClassify
	// StageDecode is one ADSP frame-payload decode on the streaming
	// ingress (the binary counterpart of JSON body decoding).
	StageDecode
	// StageAdmit is a streamed push's wait in the admission batcher's
	// queue before a worker ran it.
	StageAdmit
	// NumStages bounds the Stage enum; not a stage itself.
	NumStages
)

var stageNames = [NumStages]string{
	"auth", "rate_limit", "route", "forward", "extract", "classify",
	"decode", "admit",
}

// String returns the stage's label value as exposed on /metrics.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Latencies is the serving layer's full latency instrument set: one
// histogram per route class and one per pipeline stage. The zero value
// is ready to use; Latencies must not be copied after first use.
type Latencies struct {
	routes [NumRoutes]Histogram
	stages [NumStages]Histogram
}

// ObserveRoute records one completed request of the given route class.
func (l *Latencies) ObserveRoute(r Route, d time.Duration) {
	if r < NumRoutes {
		l.routes[r].Observe(d)
	}
}

// ObserveStage records one completed pipeline stage.
func (l *Latencies) ObserveStage(s Stage, d time.Duration) {
	if s < NumStages {
		l.stages[s].Observe(d)
	}
}

// LatencySnapshot is a point-in-time copy of every latency histogram,
// keyed by route and stage label. It is the non-counter half of a
// serving-stats snapshot: exporters encode it without touching the live
// instruments.
type LatencySnapshot struct {
	Routes map[string]HistogramSnapshot `json:"routes"`
	Stages map[string]HistogramSnapshot `json:"stages"`
}

// Snapshot copies every route and stage histogram. All series are
// present even before their first observation, so /metrics exposes the
// full layout from startup (the Prometheus convention: series appear at
// 0, not on first use).
func (l *Latencies) Snapshot() LatencySnapshot {
	s := LatencySnapshot{
		Routes: make(map[string]HistogramSnapshot, NumRoutes),
		Stages: make(map[string]HistogramSnapshot, NumStages),
	}
	for r := Route(0); r < NumRoutes; r++ {
		s.Routes[r.String()] = l.routes[r].Snapshot()
	}
	for st := Stage(0); st < NumStages; st++ {
		s.Stages[st.String()] = l.stages[st].Snapshot()
	}
	return s
}
