package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source for deterministic eviction
// tests. It is safe for concurrent use.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestPutGetRemove(t *testing.T) {
	r := New[int]()
	if err := r.Put("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("a", 2); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Put = %v, want ErrDuplicate", err)
	}
	if v, ok := r.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if _, ok := r.Get("missing"); ok {
		t.Fatal("Get found a missing id")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if !r.CompareAndRemove("a", 1) {
		t.Fatal("CompareAndRemove(a, 1) failed")
	}
	if r.CompareAndRemove("a", 1) {
		t.Fatal("second CompareAndRemove succeeded")
	}
	if r.Len() != 0 {
		t.Fatalf("Len after remove = %d", r.Len())
	}
}

func TestCapacityCap(t *testing.T) {
	r := New[int](WithCapacity(2))
	if err := r.Put("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("b", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("c", 3); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity Put = %v, want ErrFull", err)
	}
	// A rejected duplicate must not leak a capacity slot.
	if err := r.Put("a", 9); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Put = %v", err)
	}
	r.CompareAndRemove("a", 1)
	if err := r.Put("c", 3); err != nil {
		t.Fatalf("Put after CompareAndRemove = %v, capacity slot leaked", err)
	}
}

func TestDeterministicIdleEviction(t *testing.T) {
	clk := newFakeClock()
	r := New[string](WithClock(clk.Now))

	r.Put("old", "v-old")
	clk.Advance(30 * time.Second)
	r.Put("mid", "v-mid")
	clk.Advance(30 * time.Second)
	r.Put("new", "v-new")

	// now = t+60: old idle 60 s, mid idle 30 s, new idle 0 s.
	// A 60 s TTL evicts exactly the entry idle for the full TTL.
	ev := r.EvictIdle(60 * time.Second)
	if len(ev) != 1 || ev[0].ID != "old" || ev[0].Val != "v-old" {
		t.Fatalf("EvictIdle(60s) = %+v, want [old]", ev)
	}

	// Touching mid resets its timer; 15 s later a 30 s TTL spares it.
	clk.Advance(15 * time.Second)
	if !r.Touch("mid") {
		t.Fatal("Touch(mid) = false")
	}
	ev = r.EvictIdle(30 * time.Second)
	if len(ev) != 0 {
		t.Fatalf("EvictIdle(30s) after touch = %+v, want none", ev)
	}

	// 30 s later both remaining entries are stale.
	clk.Advance(30 * time.Second)
	ev = r.EvictIdle(30 * time.Second)
	ids := []string{}
	for _, e := range ev {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	if len(ids) != 2 || ids[0] != "mid" || ids[1] != "new" {
		t.Fatalf("final eviction = %v, want [mid new]", ids)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after full eviction", r.Len())
	}

	// Non-positive TTL is an explicit no-op.
	r.Put("x", "v")
	if ev := r.EvictIdle(0); ev != nil {
		t.Fatalf("EvictIdle(0) = %+v, want nil", ev)
	}
}

func TestCompareAndRemove(t *testing.T) {
	r := New[int]()
	r.Put("a", 1)
	if r.CompareAndRemove("a", 2) {
		t.Fatal("removed under a stale value")
	}
	if _, ok := r.Get("a"); !ok {
		t.Fatal("mismatched CompareAndRemove dropped the entry")
	}
	if !r.CompareAndRemove("a", 1) {
		t.Fatal("matching CompareAndRemove failed")
	}
	if r.CompareAndRemove("a", 1) {
		t.Fatal("second CompareAndRemove succeeded")
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d", r.Len())
	}
}

// TestConcurrentChurn drives opens, lookups, touches, removes and
// evictions from many goroutines at once; under -race this is the
// registry's safety proof, and the final count must balance.
func TestConcurrentChurn(t *testing.T) {
	clk := newFakeClock()
	r := New[int](WithCapacity(64), WithClock(clk.Now))

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("w%d-%d", w, i%10)
				switch i % 5 {
				case 0:
					err := r.Put(id, i)
					if err != nil && !errors.Is(err, ErrDuplicate) && !errors.Is(err, ErrFull) {
						t.Error(err)
						return
					}
				case 1:
					r.Get(id)
				case 2:
					r.Touch(id)
				case 3:
					if v, ok := r.Get(id); ok {
						r.CompareAndRemove(id, v)
					}
				case 4:
					clk.Advance(time.Millisecond)
					r.EvictIdle(50 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()

	// Len must equal the number of ids Get can still see (every id the
	// workers ever touched is probed).
	n := 0
	for w := 0; w < workers; w++ {
		for i := 0; i < 10; i++ {
			if _, ok := r.Get(fmt.Sprintf("w%d-%d", w, i)); ok {
				n++
			}
		}
	}
	if n != r.Len() {
		t.Fatalf("Len = %d but Get sees %d entries", r.Len(), n)
	}
	if r.Len() < 0 || r.Len() > 64 {
		t.Fatalf("Len = %d out of [0, capacity]", r.Len())
	}
}

func TestRange(t *testing.T) {
	r := New[int]()
	want := map[string]int{"a": 1, "b": 2, "c": 3, "d": 4}
	for id, v := range want {
		if err := r.Put(id, v); err != nil {
			t.Fatal(err)
		}
	}

	// A full walk visits every entry exactly once.
	seen := map[string]int{}
	r.Range(func(id string, v int) bool {
		seen[id] = v
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("Range saw %v, want %v", seen, want)
	}
	for id, v := range want {
		if seen[id] != v {
			t.Fatalf("Range saw %s=%d, want %d", id, seen[id], v)
		}
	}

	// Returning false stops the walk.
	calls := 0
	r.Range(func(string, int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early-stop Range made %d calls, want 1", calls)
	}

	// The callback runs outside the shard locks, so it may mutate the
	// registry mid-walk without deadlocking — the Drain sweep relies on
	// this.
	r.Range(func(id string, v int) bool {
		r.CompareAndRemove(id, v)
		return true
	})
	if r.Len() != 0 {
		t.Fatalf("Len = %d after removing every entry mid-walk", r.Len())
	}
}
