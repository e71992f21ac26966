// Package hashring implements the consistent-hash ring that shards a
// device fleet across gateway replicas.
//
// Each replica id is projected onto the ring at 128 points; a
// device id is owned by the replica whose first point lies clockwise of
// the device's own hash. Placement is a pure function of the member set
// — independent of the order the ids are given in and identical across
// processes — so every replica in a fleet computes the same owner for
// every device with no coordination traffic. Adding or removing one
// replica moves only the arcs adjacent to its points (roughly a 1/n
// fraction of the keyspace); every other device keeps its owner.
//
// A Ring is immutable: a membership change builds a new one. Lookup is
// allocation-free (an inlined 64-bit FNV-1a hash plus a binary search
// over the sorted point slice), cheap enough for the per-request routing
// path.
package hashring

import (
	"fmt"
	"sort"
	"strconv"
)

// virtualNodes is the number of ring points per replica. More points
// smooth the per-replica load split at the cost of a larger (still tiny)
// sorted slice. Every replica of a fleet must use the same count.
const virtualNodes = 128

// Ring is an immutable consistent-hash ring over replica ids, safe for
// concurrent use. Construct with New.
type Ring struct {
	hash   func(string) uint64
	points []point // sorted by (hash, owner): deterministic under collisions
}

type point struct {
	hash  uint64
	owner string
}

// New builds the ring over the given replica ids, which must be
// non-empty and distinct. A ring over no ids owns nothing.
func New(ids []string) (*Ring, error) {
	return build(ids, fnv64a, virtualNodes)
}

// build places n points per id under hash and sorts them once.
func build(ids []string, hash func(string) uint64, n int) (*Ring, error) {
	seen := make(map[string]struct{}, len(ids))
	points := make([]point, 0, len(ids)*n)
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("hashring: empty replica id")
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("hashring: replica %q given twice", id)
		}
		seen[id] = struct{}{}
		for i := 0; i < n; i++ {
			points = append(points, point{hash: hash(id + "#" + strconv.Itoa(i)), owner: id})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].hash != points[b].hash {
			return points[a].hash < points[b].hash
		}
		return points[a].owner < points[b].owner
	})
	return &Ring{hash: hash, points: points}, nil
}

// Lookup returns the replica owning key, or false on an empty ring. It
// performs no allocations.
func (r *Ring) Lookup(key string) (string, bool) {
	points := r.points
	if len(points) == 0 {
		return "", false
	}
	h := r.hash(key)
	// First point at or clockwise of h, wrapping past the top.
	lo, hi := 0, len(points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(points) {
		lo = 0
	}
	return points[lo].owner, true
}

// DefaultHash is the ring's hash function (64-bit FNV-1a with a
// murmur3-style finalizer), exported so other layers that must agree
// with ring placement coordinates — e.g. the rollout cohort math, which
// carves canary cohorts out of the same hash space — can reuse it
// without re-implementing it.
func DefaultHash(s string) uint64 { return fnv64a(s) }

// fnv64a is the 64-bit FNV-1a hash with a murmur3-style finalizer,
// inlined so Lookup stays allocation-free. Bare FNV-1a avalanches
// poorly on the short sequential keys device fleets use ("dev-1",
// "dev-2", …), which skews the per-replica load split; the final mix
// spreads those low-entropy inputs across the whole ring.
func fnv64a(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
