// Package ratelimit provides the gateway's admission throttle: a
// sharded token-bucket limiter with one lazily created bucket per device
// key plus an optional global bucket shared by all traffic.
//
// The limiter is deliberately allocation-light: a key's bucket is
// allocated once on its first request and then reused, the per-shard
// maps are guarded by independent mutexes (FNV-1a sharding, the same
// scheme as the session registry), and the decision path performs no
// allocation at all. Time comes from an injectable clock, so refill is
// deterministically testable with a fake clock; production passes
// time.Now.
//
// Buckets refill continuously at Rate tokens per second up to Burst and
// every request costs one token, so Burst bounds the size of a traffic
// spike and Rate the sustained throughput. A fresh bucket starts full —
// a device's first contact is never throttled below its burst
// allowance.
package ratelimit

import (
	"fmt"
	"sync"
	"time"
)

// Clock supplies the limiter's notion of now.
type Clock func() time.Time

// Limits configures a limiter. A non-positive rate disables that tier:
// zero DeviceRate means no per-key limiting, zero GlobalRate no global
// cap. Whenever a rate is positive the matching burst must be at least 1.
type Limits struct {
	// DeviceRate is the sustained per-key allowance in tokens per
	// second; DeviceBurst is the bucket depth (max spike).
	DeviceRate  float64
	DeviceBurst int
	// GlobalRate and GlobalBurst shape the single bucket every request
	// shares, regardless of key.
	GlobalRate  float64
	GlobalBurst int
}

func (l Limits) validate() error {
	if l.DeviceRate > 0 && l.DeviceBurst < 1 {
		return fmt.Errorf("ratelimit: device burst %d must be >= 1 when a device rate is set", l.DeviceBurst)
	}
	if l.GlobalRate > 0 && l.GlobalBurst < 1 {
		return fmt.Errorf("ratelimit: global burst %d must be >= 1 when a global rate is set", l.GlobalBurst)
	}
	return nil
}

// Decision is the outcome of one admission check.
type Decision int

const (
	// Allowed admits the request.
	Allowed Decision = iota
	// DeniedGlobal rejects it at the shared global bucket.
	DeniedGlobal
	// DeniedDevice rejects it at the key's own bucket.
	DeniedDevice
)

// OK reports whether the decision admits the request.
func (d Decision) OK() bool { return d == Allowed }

// String names the decision for logs and errors.
func (d Decision) String() string {
	switch d {
	case Allowed:
		return "allowed"
	case DeniedGlobal:
		return "denied-global"
	case DeniedDevice:
		return "denied-device"
	}
	return fmt.Sprintf("ratelimit.Decision(%d)", int(d))
}

// Option configures a Limiter.
type Option func(*options)

type options struct {
	now Clock
}

// numShards is the shard count, a power of two.
const numShards = 16

// WithClock injects the time source (default time.Now).
func WithClock(c Clock) Option { return func(o *options) { o.now = c } }

// bucket is one token bucket. last is the clock reading of the previous
// refill in unix nanoseconds; it doubles as the idle timestamp Prune
// inspects.
type bucket struct {
	tokens float64
	last   int64
}

// take refills the bucket to now and consumes one token if available.
// The refill anchor only moves forward: when the clock steps backward
// (an NTP correction under the real clock), the bucket neither refills
// nor rewinds its anchor, so the stepped-over interval cannot be
// credited twice.
func (b *bucket) take(now int64, rate, burst float64) bool {
	if dt := float64(now-b.last) / float64(time.Second); dt > 0 {
		b.tokens += dt * rate
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

type shard struct {
	mu sync.Mutex
	m  map[string]*bucket
}

// Limiter is a sharded per-key token-bucket limiter with an optional
// global bucket. It is safe for concurrent use by any number of
// goroutines.
type Limiter struct {
	limits Limits
	shards [numShards]shard
	now    Clock

	globalMu sync.Mutex
	global   bucket
}

// New builds a limiter enforcing the given limits.
func New(limits Limits, opts ...Option) (*Limiter, error) {
	if err := limits.validate(); err != nil {
		return nil, err
	}
	o := options{now: time.Now}
	for _, opt := range opts {
		opt(&o)
	}
	l := &Limiter{limits: limits, now: o.now}
	for i := range l.shards {
		l.shards[i].m = make(map[string]*bucket)
	}
	// The global bucket starts full at its burst depth.
	l.global = bucket{tokens: float64(limits.GlobalBurst), last: l.now().UnixNano()}
	return l, nil
}

// fnv1a is the 32-bit FNV-1a hash (inlined to keep Allow allocation-free).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// AllowGlobal consumes one token from the global bucket only — the check
// for keyless traffic such as one-shot classification. With no global
// rate configured it always admits.
func (l *Limiter) AllowGlobal() Decision {
	if l.limits.GlobalRate <= 0 {
		return Allowed
	}
	now := l.now().UnixNano()
	l.globalMu.Lock()
	ok := l.global.take(now, l.limits.GlobalRate, float64(l.limits.GlobalBurst))
	l.globalMu.Unlock()
	if !ok {
		return DeniedGlobal
	}
	return Allowed
}

// Allow consumes one token for the keyed request: first from the global
// bucket, then from key's own bucket (each only if its tier is
// configured). A request denied at the key's bucket has already spent
// its global token — global accounting charges offered load, not
// admitted load, so a flooding device cannot make the global bucket
// under-count.
func (l *Limiter) Allow(key string) Decision {
	if d := l.AllowGlobal(); !d.OK() {
		return d
	}
	if l.limits.DeviceRate <= 0 {
		return Allowed
	}
	now := l.now().UnixNano()
	s := &l.shards[fnv1a(key)%numShards]
	s.mu.Lock()
	b, ok := s.m[key]
	if !ok {
		b = &bucket{tokens: float64(l.limits.DeviceBurst), last: now}
		s.m[key] = b
	}
	admitted := b.take(now, l.limits.DeviceRate, float64(l.limits.DeviceBurst))
	s.mu.Unlock()
	if !admitted {
		return DeniedDevice
	}
	return Allowed
}

// Len returns the number of live per-key buckets.
func (l *Limiter) Len() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Prune drops per-key buckets idle for at least maxIdle, returning how
// many it removed. Removal is semantically invisible: a bucket is only
// dropped once it has also been idle long enough to have refilled to its
// full burst, so the key's next request sees exactly the fresh-bucket
// state it would have seen anyway. Callers run Prune from their idle
// sweep so a churning fleet's dead keys do not accumulate.
func (l *Limiter) Prune(maxIdle time.Duration) int {
	if maxIdle < 0 {
		maxIdle = 0
	}
	if l.limits.DeviceRate > 0 {
		// Time for an empty bucket to refill completely.
		full := time.Duration(float64(l.limits.DeviceBurst) / l.limits.DeviceRate * float64(time.Second))
		if full > maxIdle {
			maxIdle = full
		}
	}
	deadline := l.now().Add(-maxIdle).UnixNano()
	removed := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		for k, b := range s.m {
			if b.last <= deadline {
				delete(s.m, k)
				removed++
			}
		}
		s.mu.Unlock()
	}
	return removed
}
