// Package registry provides the gateway's session table: a sharded,
// capacity-capped map from session id to live session with idle-TTL
// eviction.
//
// The registry is deliberately mechanism, not policy: it stores opaque
// values, tracks a last-activity timestamp per entry, and evicts on
// demand when asked. Time comes from an injectable clock, so eviction is
// deterministically testable with a fake clock and the production
// gateway can simply pass time.Now.
//
// Sharding bounds lock contention under many concurrent devices: ids are
// FNV-1a-hashed onto independently locked shards, so opens, lookups and
// touches on different shards never serialize, and the capacity cap is a
// single shared atomic rather than a global lock.
package registry

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors returned by Put.
var (
	// ErrDuplicate reports that the id is already registered.
	ErrDuplicate = errors.New("registry: duplicate id")
	// ErrFull reports that the registry is at its capacity cap.
	ErrFull = errors.New("registry: at capacity")
)

// Clock supplies the registry's notion of now.
type Clock func() time.Time

// Registry is a sharded id → value table with last-activity tracking.
// It is safe for concurrent use by any number of goroutines.
type Registry[T comparable] struct {
	shards [numShards]shard[T]
	cap    int64 // 0 = unlimited
	count  atomic.Int64
	now    Clock
}

type shard[T comparable] struct {
	mu sync.RWMutex
	m  map[string]*entry[T]
}

type entry[T comparable] struct {
	val      T
	lastSeen atomic.Int64 // clock reading, unix nanoseconds
}

// Option configures a Registry.
type Option func(*options)

type options struct {
	cap int64
	now Clock
}

// numShards is the shard count, a power of two.
const numShards = 16

// WithCapacity caps the number of registered entries; Put returns ErrFull
// beyond it. Zero (the default) means unlimited.
func WithCapacity(n int) Option { return func(o *options) { o.cap = int64(n) } }

// WithClock injects the time source (default time.Now).
func WithClock(c Clock) Option { return func(o *options) { o.now = c } }

// New builds an empty registry.
func New[T comparable](opts ...Option) *Registry[T] {
	o := options{now: time.Now}
	for _, opt := range opts {
		opt(&o)
	}
	r := &Registry[T]{cap: o.cap, now: o.now}
	for i := range r.shards {
		r.shards[i].m = make(map[string]*entry[T])
	}
	return r
}

// fnv1a is the 32-bit FNV-1a hash (inlined to keep Get allocation-free).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (r *Registry[T]) shard(id string) *shard[T] {
	return &r.shards[fnv1a(id)%numShards]
}

// Put registers v under id. It returns ErrDuplicate if the id is taken
// and ErrFull if the registry is at capacity; an already-registered id
// reports ErrDuplicate even at capacity.
func (r *Registry[T]) Put(id string, v T) error {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; ok {
		return ErrDuplicate
	}
	// Reserve a slot with the shared atomic, giving it back if over the
	// cap. This keeps the cap exact without a global lock.
	if r.count.Add(1) > r.cap && r.cap > 0 {
		r.count.Add(-1)
		return ErrFull
	}
	e := &entry[T]{val: v}
	e.lastSeen.Store(r.now().UnixNano())
	s.m[id] = e
	return nil
}

// Get returns the value registered under id. It does not refresh the
// entry's idle timer; use Touch for that.
func (r *Registry[T]) Get(id string) (T, bool) {
	s := r.shard(id)
	s.mu.RLock()
	e, ok := s.m[id]
	s.mu.RUnlock()
	if !ok {
		var zero T
		return zero, false
	}
	return e.val, true
}

// Touch refreshes id's idle timer, reporting whether the id is
// registered. The store happens under the shard's read lock so that a
// successful Touch is ordered against the write-locked eviction scan —
// an entry refreshed by Touch cannot be evicted with its stale
// timestamp.
func (r *Registry[T]) Touch(id string) bool {
	s := r.shard(id)
	s.mu.RLock()
	e, ok := s.m[id]
	if ok {
		e.lastSeen.Store(r.now().UnixNano())
	}
	s.mu.RUnlock()
	return ok
}

// CompareAndRemove unregisters id only if it still maps to v, reporting
// whether it did. It lets an owner tear down its own registration without
// racing a concurrent evict-and-reopen: if the id was evicted and reused
// by a new value, the new registration is left untouched.
func (r *Registry[T]) CompareAndRemove(id string, v T) bool {
	s := r.shard(id)
	s.mu.Lock()
	e, ok := s.m[id]
	if ok && e.val == v {
		delete(s.m, id)
		s.mu.Unlock()
		r.count.Add(-1)
		return true
	}
	s.mu.Unlock()
	return false
}

// Len returns the number of registered entries.
func (r *Registry[T]) Len() int { return int(r.count.Load()) }

// Range calls f for every registered entry until f returns false. Each
// shard is snapshotted under its read lock and f runs outside all locks,
// so f may freely call back into the registry (CompareAndRemove, Touch,
// Put) — the price is the usual weak consistency: entries added or removed
// concurrently with the walk may or may not be visited.
func (r *Registry[T]) Range(f func(id string, v T) bool) {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		ids := make([]string, 0, len(s.m))
		vals := make([]T, 0, len(s.m))
		for id, e := range s.m {
			ids = append(ids, id)
			vals = append(vals, e.val)
		}
		s.mu.RUnlock()
		for j, id := range ids {
			if !f(id, vals[j]) {
				return
			}
		}
	}
}

// Evicted is one entry removed by EvictIdle.
type Evicted[T comparable] struct {
	ID  string
	Val T
}

// EvictIdle removes every entry whose idle time is ttl or more — that is,
// whose last activity was at or before now-ttl by the registry's clock —
// and returns the removed entries. A non-positive ttl evicts nothing.
func (r *Registry[T]) EvictIdle(ttl time.Duration) []Evicted[T] {
	if ttl <= 0 {
		return nil
	}
	deadline := r.now().Add(-ttl).UnixNano()
	var out []Evicted[T]
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for id, e := range s.m {
			if e.lastSeen.Load() <= deadline {
				delete(s.m, id)
				r.count.Add(-1)
				out = append(out, Evicted[T]{ID: id, Val: e.val})
			}
		}
		s.mu.Unlock()
	}
	return out
}
