package ratelimit

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

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

func newTestLimiter(t *testing.T, limits Limits) (*Limiter, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	l, err := New(limits, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	return l, clk
}

func TestValidation(t *testing.T) {
	for _, limits := range []Limits{
		{DeviceRate: 1},                                // missing device burst
		{GlobalRate: 1},                                // missing global burst
		{DeviceRate: 1, DeviceBurst: -1},               // negative burst
		{DeviceRate: 1, DeviceBurst: 0, GlobalRate: 0}, // zero burst
	} {
		if _, err := New(limits); err == nil {
			t.Errorf("New(%+v) accepted", limits)
		}
	}
	// A negative rate disables its tier, exactly like zero.
	l, err := New(Limits{DeviceRate: -1, GlobalRate: -2})
	if err != nil {
		t.Fatalf("negative (disabled) rates rejected: %v", err)
	}
	for i := 0; i < 100; i++ {
		if d := l.Allow("dev"); !d.OK() {
			t.Fatalf("negative-rate limiter denied request %d: %v", i, d)
		}
	}
}

func TestUnlimitedByDefault(t *testing.T) {
	l, _ := newTestLimiter(t, Limits{})
	for i := 0; i < 1000; i++ {
		if d := l.Allow("dev"); !d.OK() {
			t.Fatalf("unconfigured limiter denied request %d: %v", i, d)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("unconfigured limiter grew %d buckets", l.Len())
	}
}

func TestDeviceBurstAndRefill(t *testing.T) {
	l, clk := newTestLimiter(t, Limits{DeviceRate: 2, DeviceBurst: 3})

	// A fresh key gets its full burst, then is denied.
	for i := 0; i < 3; i++ {
		if d := l.Allow("a"); !d.OK() {
			t.Fatalf("burst request %d denied: %v", i, d)
		}
	}
	if d := l.Allow("a"); d != DeniedDevice {
		t.Fatalf("over-burst request = %v, want DeniedDevice", d)
	}

	// Keys are independent.
	if d := l.Allow("b"); !d.OK() {
		t.Fatalf("independent key denied: %v", d)
	}

	// 1 s at 2 tokens/s refills 2 tokens, not the full burst.
	clk.Advance(time.Second)
	for i := 0; i < 2; i++ {
		if d := l.Allow("a"); !d.OK() {
			t.Fatalf("post-refill request %d denied: %v", i, d)
		}
	}
	if d := l.Allow("a"); d != DeniedDevice {
		t.Fatalf("request past refill allowance = %v, want DeniedDevice", d)
	}

	// Refill caps at the burst depth even after a long idle gap.
	clk.Advance(time.Hour)
	for i := 0; i < 3; i++ {
		if d := l.Allow("a"); !d.OK() {
			t.Fatalf("post-idle request %d denied: %v", i, d)
		}
	}
	if d := l.Allow("a"); d != DeniedDevice {
		t.Fatalf("idle refill exceeded burst: %v", d)
	}
}

// TestClockRewindDoesNotRecredit steps the clock backward (an NTP
// correction under the real clock): the stepped-over interval must not
// refill the bucket twice.
func TestClockRewindDoesNotRecredit(t *testing.T) {
	l, clk := newTestLimiter(t, Limits{DeviceRate: 1, DeviceBurst: 2})
	for i := 0; i < 2; i++ {
		if d := l.Allow("a"); !d.OK() {
			t.Fatalf("burst request %d denied: %v", i, d)
		}
	}
	if d := l.Allow("a"); d != DeniedDevice {
		t.Fatalf("exhausted bucket admitted: %v", d)
	}

	// Step back 10 s: no refill, and the anchor must not rewind.
	clk.Advance(-10 * time.Second)
	if d := l.Allow("a"); d != DeniedDevice {
		t.Fatalf("rewound clock admitted: %v", d)
	}
	// Step forward to the original instant: the interval was already
	// spent once, so still empty.
	clk.Advance(10 * time.Second)
	if d := l.Allow("a"); d != DeniedDevice {
		t.Fatalf("re-crossed interval re-credited the bucket: %v", d)
	}
	// Genuinely new time refills as usual.
	clk.Advance(time.Second)
	if d := l.Allow("a"); !d.OK() {
		t.Fatalf("post-rewind refill denied: %v", d)
	}
}

func TestGlobalBucket(t *testing.T) {
	l, clk := newTestLimiter(t, Limits{GlobalRate: 1, GlobalBurst: 2})

	// The global bucket spans keys and keyless traffic.
	if d := l.Allow("a"); !d.OK() {
		t.Fatal(d)
	}
	if d := l.AllowGlobal(); !d.OK() {
		t.Fatal(d)
	}
	if d := l.Allow("b"); d != DeniedGlobal {
		t.Fatalf("over-global request = %v, want DeniedGlobal", d)
	}
	if d := l.AllowGlobal(); d != DeniedGlobal {
		t.Fatalf("keyless over-global request = %v, want DeniedGlobal", d)
	}

	clk.Advance(time.Second)
	if d := l.Allow("c"); !d.OK() {
		t.Fatalf("post-refill global request denied: %v", d)
	}
}

// TestGlobalChargesOfferedLoad pins the documented contract: a request
// denied at its device bucket has still consumed its global token.
func TestGlobalChargesOfferedLoad(t *testing.T) {
	l, _ := newTestLimiter(t, Limits{
		DeviceRate: 1, DeviceBurst: 1,
		GlobalRate: 1, GlobalBurst: 3,
	})
	if d := l.Allow("flood"); !d.OK() {
		t.Fatal(d)
	}
	if d := l.Allow("flood"); d != DeniedDevice {
		t.Fatalf("second flood request = %v, want DeniedDevice", d)
	}
	// Burst 3: one admitted + one denied-at-device leaves one global token.
	if d := l.Allow("victim"); !d.OK() {
		t.Fatalf("victim request = %v, want Allowed", d)
	}
	if d := l.Allow("other"); d != DeniedGlobal {
		t.Fatalf("fourth request = %v, want DeniedGlobal", d)
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{
		Allowed:      "allowed",
		DeniedGlobal: "denied-global",
		DeniedDevice: "denied-device",
		Decision(9):  "ratelimit.Decision(9)",
	} {
		if got := d.String(); got != want {
			t.Errorf("Decision(%d).String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestPrune(t *testing.T) {
	l, clk := newTestLimiter(t, Limits{DeviceRate: 1, DeviceBurst: 5})
	for i := 0; i < 10; i++ {
		l.Allow(fmt.Sprintf("dev-%d", i))
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d, want 10", l.Len())
	}

	// Too soon: buckets have not refilled to full burst yet (5 s at
	// 1 token/s), so pruning would be observable and must not happen.
	clk.Advance(2 * time.Second)
	if n := l.Prune(time.Second); n != 0 {
		t.Fatalf("early Prune removed %d buckets", n)
	}

	// Keep one key active; everything else is stale past both the idle
	// threshold and the refill horizon.
	clk.Advance(time.Hour)
	l.Allow("dev-0")
	if n := l.Prune(time.Minute); n != 9 {
		t.Fatalf("Prune removed %d buckets, want 9", n)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after prune = %d, want 1", l.Len())
	}

	// The pruned key's next request sees a fresh full bucket.
	clk.Advance(time.Hour)
	for i := 0; i < 5; i++ {
		if d := l.Allow("dev-3"); !d.OK() {
			t.Fatalf("post-prune burst request %d denied: %v", i, d)
		}
	}
}

// TestConcurrentAllow hammers the limiter from many goroutines under a
// real clock; run with -race. The total admitted count cannot exceed the
// per-key burst plus the refill over the test's (tiny) duration.
func TestConcurrentAllow(t *testing.T) {
	l, err := New(Limits{DeviceRate: 10, DeviceBurst: 50, GlobalRate: 1e6, GlobalBurst: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, attempts = 8, 100
	var admitted [goroutines]int
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				key := fmt.Sprintf("dev-%d", i%4)
				if l.Allow(key).OK() {
					admitted[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range admitted {
		total += n
	}
	// 4 keys × 50 burst plus a generous refill margin for test runtime.
	if total == 0 || total > 4*50+100 {
		t.Fatalf("admitted %d of %d, outside plausible range", total, goroutines*attempts)
	}
}
