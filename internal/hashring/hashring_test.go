package hashring

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"
)

func keys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = "device-" + strconv.Itoa(i)
	}
	return ks
}

func mustNew(t testing.TB, ids ...string) *Ring {
	t.Helper()
	r, err := New(ids)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func placements(t *testing.T, r *Ring, ks []string) map[string]string {
	t.Helper()
	owners := make(map[string]string, len(ks))
	for _, k := range ks {
		owner, ok := r.Lookup(k)
		if !ok {
			t.Fatalf("Lookup(%q) on a populated ring reported empty", k)
		}
		owners[k] = owner
	}
	return owners
}

func TestRingRejectsBadIDs(t *testing.T) {
	if _, err := New([]string{"a", ""}); err == nil {
		t.Error("empty replica id accepted")
	}
	if _, err := New([]string{"a", "b", "a"}); err == nil {
		t.Error("duplicate replica accepted")
	}
}

func TestRingEmpty(t *testing.T) {
	if _, ok := mustNew(t).Lookup("device-1"); ok {
		t.Error("Lookup on empty ring reported an owner")
	}
}

// TestRingGoldenPlacement pins placement across versions. Replicas of
// different builds coexist during a rolling upgrade, and they must agree
// on every device's owner, so neither the hash nor the point layout may
// change silently. Both sums are FNV-64a digests captured from the
// earlier ring that was built by inserting one replica at a time.
func TestRingGoldenPlacement(t *testing.T) {
	r := mustNew(t, "gw-a", "gw-b", "gw-c", "gw-d", "gw-e")
	h := fnv.New64a()
	for _, k := range keys(20000) {
		owner, _ := r.Lookup(k)
		fmt.Fprintf(h, "%s=%s\n", k, owner)
	}
	if got, want := h.Sum64(), uint64(0xbc56994cda0109e6); got != want {
		t.Errorf("owners of 20000 ids over 5 replicas hash to %#016x, want %#016x", got, want)
	}

	h = fnv.New64a()
	for _, k := range []string{"", "a", "dev-1", "dev-2", "wrist-3", "gw-a#0", "gw-e#127", "device-19999", "\x00\xff", "ünïcødé"} {
		h.Write(binary.BigEndian.AppendUint64(nil, DefaultHash(k)))
	}
	if got, want := h.Sum64(), uint64(0x25dba29b98e12849); got != want {
		t.Errorf("DefaultHash of the fixed keys hashes to %#016x, want %#016x", got, want)
	}
}

// TestRingDeterministicPlacement is the federation invariant: two rings
// built independently (different processes in production) from the same
// member set place every key identically, regardless of the order the
// ids were given in.
func TestRingDeterministicPlacement(t *testing.T) {
	ks := keys(2000)
	a := mustNew(t, "gw-a", "gw-b", "gw-c", "gw-d")
	b := mustNew(t, "gw-d", "gw-b", "gw-a", "gw-c")
	pa, pb := placements(t, a, ks), placements(t, b, ks)
	for _, k := range ks {
		if pa[k] != pb[k] {
			t.Fatalf("placement of %q depends on id order: %q vs %q", k, pa[k], pb[k])
		}
	}
	// Repeated lookups on one ring are stable too.
	for _, k := range ks[:100] {
		if again, _ := a.Lookup(k); again != pa[k] {
			t.Fatalf("Lookup(%q) not stable: %q then %q", k, pa[k], again)
		}
	}
}

// TestRingMinimalRebalance proves the consistent-hashing contract,
// comparing a ring over four replicas with one over the same four plus
// a fifth: growing steals only the new replica's arcs. Every moved key
// moves TO the new replica (no key shuffles between the others), and
// the moved fraction stays near 1/5.
func TestRingMinimalRebalance(t *testing.T) {
	ks := keys(10000)
	before := placements(t, mustNew(t, "gw-a", "gw-b", "gw-c", "gw-d"), ks)
	after := placements(t, mustNew(t, "gw-a", "gw-b", "gw-c", "gw-d", "gw-e"), ks)
	moved := 0
	for _, k := range ks {
		if before[k] == after[k] {
			continue
		}
		moved++
		if after[k] != "gw-e" {
			t.Fatalf("key %q moved between survivors: %q -> %q", k, before[k], after[k])
		}
	}
	// Ideal moved fraction is 1/5; allow generous slack for hash variance
	// but fail on anything resembling a full reshuffle.
	frac := float64(moved) / float64(len(ks))
	if frac == 0 || frac > 2.0/5 {
		t.Fatalf("adding 1 of 5 replicas moved %.1f%% of keys (want ~20%%, ≤40%%)", 100*frac)
	}
}

// TestRingRemoveMinimalRebalance is the inverse arc proof, comparing a
// ring over four replicas with one over three of them: removing one
// replica reassigns only that replica's own arc. Every key it owned
// falls to a survivor, and no key owned by a survivor moves at all —
// the guarantee the cluster's session handoff leans on (only the
// departing replica's devices re-home).
func TestRingRemoveMinimalRebalance(t *testing.T) {
	ks := keys(10000)
	before := placements(t, mustNew(t, "gw-a", "gw-b", "gw-c", "gw-d"), ks)
	after := placements(t, mustNew(t, "gw-a", "gw-b", "gw-d"), ks)
	moved := 0
	for _, k := range ks {
		if before[k] == "gw-c" {
			moved++
			continue
		}
		if after[k] != before[k] {
			t.Fatalf("survivor-owned key %q shuffled: %q -> %q", k, before[k], after[k])
		}
	}
	// The removed replica's share of four should be near 1/4.
	frac := float64(moved) / float64(len(ks))
	if frac == 0 || frac > 2.0/4 {
		t.Fatalf("removing 1 of 4 replicas moved %.1f%% of keys (want ~25%%, ≤50%%)", 100*frac)
	}
}

// TestRingDistribution sanity-checks the virtual-node smoothing: no
// replica of four owns a wildly outsized share.
func TestRingDistribution(t *testing.T) {
	ks := keys(10000)
	members := []string{"gw-a", "gw-b", "gw-c", "gw-d"}
	counts := make(map[string]int)
	for _, owner := range placements(t, mustNew(t, members...), ks) {
		counts[owner]++
	}
	for _, id := range members {
		frac := float64(counts[id]) / float64(len(ks))
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("replica %s owns %.1f%% of keys (want a rough quarter)", id, 100*frac)
		}
	}
}

// TestRingInjectableHash forces placements through a table hash with
// one point per replica (the build seam New wraps) and exercises the
// clockwise wraparound at the top of the ring.
func TestRingInjectableHash(t *testing.T) {
	table := map[string]uint64{
		"a#0": 100, "b#0": 200, // ring points
		"k-low": 50, "k-mid": 150, "k-high": 250, // keys
	}
	r, err := build([]string{"b", "a"}, func(s string) uint64 { return table[s] }, 1)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"k-low":  "a", // 50 -> first point clockwise is a@100
		"k-mid":  "b", // 150 -> b@200
		"k-high": "a", // 250 -> wraps past the top back to a@100
	} {
		if got, _ := r.Lookup(key); got != want {
			t.Errorf("Lookup(%s) = %s, want %s", key, got, want)
		}
	}
}

// TestRingLookupAllocs pins the per-request routing path at zero
// allocations.
func TestRingLookupAllocs(t *testing.T) {
	r := mustNew(t, "gw-a", "gw-b", "gw-c", "gw-d", "gw-e")
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := r.Lookup("device-12345"); !ok {
			t.Fatal("empty ring")
		}
	}); allocs != 0 {
		t.Errorf("Lookup allocates %.0f times, want 0", allocs)
	}
}

func BenchmarkRingLookup(b *testing.B) {
	r := mustNew(b, "gw-a", "gw-b", "gw-c", "gw-d", "gw-e")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Lookup("device-12345"); !ok {
			b.Fatal("empty ring")
		}
	}
}
