// Package reqtrace carries a per-request distributed trace through the
// serving path: a trace id minted at ingress (or inherited from the
// X-Adasense-Trace header on a forwarded hop), a hop counter, and a
// flat list of named span timings accumulated as the request crosses
// auth, routing, the proxy hop, and the classification pipeline.
//
// A *Trace rides the request context. It is deliberately not a general
// tracing API: spans are a fixed-capacity slice under one mutex, traces
// are never sampled out, and export is the in-memory Recorder behind
// GET /v1/debug/requests — enough to answer "where did this request's
// time go, and on which replica" without an external collector.
//
// This package is distinct from internal/trace, which holds the
// paper's sensor time-series traces, not request traces.
package reqtrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// maxSpans bounds a single trace's span list; a serving request crosses
// a handful of stages, so hitting the cap means a loop — drop, don't grow.
const maxSpans = 32

// Span is one timed stage of a request: its name, when it started
// relative to the trace start, and how long it took.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// Trace accumulates one request's identity and span timings. All
// methods are nil-safe: code instrumented with spans runs unchanged on
// paths with no trace in the context.
type Trace struct {
	// ID is the fleet-wide request id, hex, minted at first ingress.
	ID string
	// Hop counts proxy hops: 0 at the replica the client hit, 1 on
	// the replica a forward landed on.
	Hop int
	// Start is when this replica began handling the request.
	Start time.Time

	mu    sync.Mutex
	spans []Span
}

// New returns a trace with a freshly minted id, hop 0, started now.
func New() *Trace {
	return &Trace{ID: NewID(), Start: time.Now()}
}

// NewID mints a 16-hex-char random trace id.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a fixed
		// fallback id is still a valid (if degenerate) trace.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Span records a stage beginning now and returns the function that ends
// it. Use as: defer tr.Span("auth")(). Nil-safe.
func (t *Trace) Span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		t.mu.Lock()
		if len(t.spans) < maxSpans {
			t.spans = append(t.spans, Span{
				Name:  name,
				Start: start.Sub(t.Start),
				Dur:   time.Since(start),
			})
		}
		t.mu.Unlock()
	}
}

// Spans returns a copy of the spans recorded so far.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

type ctxKey struct{}

// NewContext returns ctx carrying tr.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil. Callers need
// not check for nil: every Trace method is nil-safe.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// ValidID reports whether s is a well-formed wire trace id: 1–64
// lowercase-hex characters. Inherited ids are validated before reuse so
// a hostile header can't inject log or JSON content.
func ValidID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
