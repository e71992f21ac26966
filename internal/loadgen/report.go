package loadgen

import (
	"fmt"

	"adasense/internal/telemetry"
)

// Counts is the outcome tally of one phase (or the whole run). The
// accounting invariant Offered == Shed + PushOK + Lost holds per phase;
// status counters tally every HTTP response seen, including ones that a
// later retry turned into a success.
type Counts struct {
	Offered   uint64 `json:"offered"`
	Shed      uint64 `json:"shed"`
	PushOK    uint64 `json:"push_2xx"`
	Status429 uint64 `json:"status_429"`
	Status4xx uint64 `json:"status_4xx"`
	Status5xx uint64 `json:"status_5xx"`
	Transport uint64 `json:"transport_errors"`
	Retries   uint64 `json:"retries"`
	Reopens   uint64 `json:"reopens"`
	Lost      uint64 `json:"lost"`
}

func (c Counts) add(o Counts) Counts {
	return Counts{
		Offered:   c.Offered + o.Offered,
		Shed:      c.Shed + o.Shed,
		PushOK:    c.PushOK + o.PushOK,
		Status429: c.Status429 + o.Status429,
		Status4xx: c.Status4xx + o.Status4xx,
		Status5xx: c.Status5xx + o.Status5xx,
		Transport: c.Transport + o.Transport,
		Retries:   c.Retries + o.Retries,
		Reopens:   c.Reopens + o.Reopens,
		Lost:      c.Lost + o.Lost,
	}
}

// errors returns the responses that signal the target (not the driver)
// failed: rate rejections, server errors, transport failures.
func (c Counts) errors() uint64 {
	return c.Status429 + c.Status4xx + c.Status5xx + c.Transport
}

// RouteStats summarizes one route's latency from its log2 histogram:
// mean plus interpolated p50/p95/p99. Bucket bounds double from
// 1.024 µs, so a quantile is only as fine as one bucket, a factor of two
// wide.
type RouteStats struct {
	Count   uint64  `json:"count"`
	MeanSec float64 `json:"mean_s"`
	P50Sec  float64 `json:"p50_s"`
	P95Sec  float64 `json:"p95_s"`
	P99Sec  float64 `json:"p99_s"`
}

func routeStats(s telemetry.HistogramSnapshot) RouteStats {
	rs := RouteStats{
		Count:  s.Count,
		P50Sec: s.Quantile(0.50),
		P95Sec: s.Quantile(0.95),
		P99Sec: s.Quantile(0.99),
	}
	if s.Count > 0 {
		rs.MeanSec = s.SumSeconds / float64(s.Count)
	}
	return rs
}

// PhaseReport is one pacing phase's result.
type PhaseReport struct {
	Index        int                   `json:"index"`
	OfferedRate  float64               `json:"offered_rate"`
	AchievedRate float64               `json:"achieved_rate"`
	ElapsedSec   float64               `json:"elapsed_s"`
	Counts       Counts                `json:"counts"`
	Routes       map[string]RouteStats `json:"routes"`
}

// sustained reports whether the phase kept up with its offered rate:
// nearly every offered push succeeded and errors stayed marginal.
func (p PhaseReport) sustained() bool {
	if p.Counts.Offered == 0 {
		return false
	}
	goodput := float64(p.Counts.PushOK) / float64(p.Counts.Offered)
	errRatio := float64(p.Counts.errors()) / float64(p.Counts.Offered)
	return goodput >= kneeGoodput && errRatio <= kneeMaxErrRatio
}

// Knee criteria: a phase counts as sustained when at least 95% of
// offered pushes succeed and under 1% of them draw an error response.
const (
	kneeGoodput     = 0.95
	kneeMaxErrRatio = 0.01
)

// Capacity is the rate-ramp knee estimate: the highest offered rate the
// target sustained, and whether a later (higher) phase failed — i.e.
// whether the ramp actually found the knee or just ran out of phases.
type Capacity struct {
	KneeRate       float64 `json:"knee_rate"`
	AchievedAtKnee float64 `json:"achieved_at_knee"`
	Saturated      bool    `json:"saturated"`
	Criterion      string  `json:"criterion"`
}

// findKnee scans the phases in ramp order for the highest sustained
// offered rate. Returns nil when no phases ran.
func findKnee(phases []PhaseReport) *Capacity {
	if len(phases) == 0 {
		return nil
	}
	est := &Capacity{
		Criterion: fmt.Sprintf("goodput >= %.0f%% of offered and errors <= %.0f%% of offered",
			kneeGoodput*100, kneeMaxErrRatio*100),
	}
	for _, p := range phases {
		if p.sustained() {
			if p.OfferedRate > est.KneeRate {
				est.KneeRate = p.OfferedRate
				est.AchievedAtKnee = p.AchievedRate
			}
		} else {
			est.Saturated = true
		}
	}
	return est
}

// Report is the run's full result, marshaled as the cmd's JSON output.
// See docs/loadgen.md for the schema reference.
type Report struct {
	Seed      uint64                `json:"seed"`
	Devices   int                   `json:"devices"`
	Cohorts   map[string]int        `json:"cohorts"`
	BatchSec  float64               `json:"batch_sec"`
	Targets   []string              `json:"targets"`
	Transport string                `json:"transport"`
	Preopened Counts                `json:"preopened"`
	Phases    []PhaseReport         `json:"phases"`
	Routes    map[string]RouteStats `json:"routes"`
	Totals    Counts                `json:"totals"`
	Capacity  *Capacity             `json:"capacity,omitempty"`
}

// Validate checks the report's structural invariants — the "well-formed
// report" contract the soak test and the CI smoke assert: phases
// present, quantiles monotone, and per-phase accounting exact.
func (r *Report) Validate() error {
	if len(r.Phases) == 0 {
		return fmt.Errorf("loadgen: report has no phases")
	}
	if _, ok := r.Routes["push"]; !ok {
		return fmt.Errorf("loadgen: report missing push route stats")
	}
	for _, p := range r.Phases {
		c := p.Counts
		if c.Shed+c.PushOK+c.Lost != c.Offered {
			return fmt.Errorf("loadgen: phase %d accounting broken: offered=%d shed=%d ok=%d lost=%d",
				p.Index, c.Offered, c.Shed, c.PushOK, c.Lost)
		}
		for name, rs := range p.Routes {
			if rs.P50Sec > rs.P95Sec || rs.P95Sec > rs.P99Sec {
				return fmt.Errorf("loadgen: phase %d route %s quantiles not monotone: p50=%v p95=%v p99=%v",
					p.Index, name, rs.P50Sec, rs.P95Sec, rs.P99Sec)
			}
		}
	}
	for name, rs := range r.Routes {
		if rs.P50Sec > rs.P95Sec || rs.P95Sec > rs.P99Sec {
			return fmt.Errorf("loadgen: route %s quantiles not monotone", name)
		}
	}
	return nil
}
