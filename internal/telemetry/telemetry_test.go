package telemetry

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCountersZeroValue(t *testing.T) {
	var c Counters
	s := c.Snapshot()
	if s != (Snapshot{}) {
		t.Fatalf("zero counters snapshot = %+v, want all-zero", s)
	}
}

func TestCountersAccumulate(t *testing.T) {
	var c Counters
	c.SessionsOpened.Add(2)
	c.SessionsClosed.Add(1)
	c.SessionsEvicted.Add(1)
	c.BatchesPushed.Add(2) // one with three events, one too short to complete a tick
	c.EventsEmitted.Add(3)
	c.ClassifyCalls.Add(1)
	c.PoolHits.Add(3)
	c.PoolMisses.Add(1)
	c.ModelSwaps.Add(1)
	c.RequestsForwarded.Add(2)
	c.SwapsReplicated.Add(1)
	c.PeerErrors.Add(1)

	s := c.Snapshot()
	want := Snapshot{
		SessionsOpened:    2,
		SessionsClosed:    1,
		SessionsEvicted:   1,
		BatchesPushed:     2,
		EventsEmitted:     3,
		ClassifyCalls:     1,
		PoolHits:          3,
		PoolMisses:        1,
		ModelSwaps:        1,
		RequestsForwarded: 2,
		SwapsReplicated:   1,
		PeerErrors:        1,
		PoolHitRate:       0.75,
	}
	if s != want {
		t.Fatalf("snapshot = %+v, want %+v", s, want)
	}
}

// TestCountersConcurrent hammers every counter from many goroutines; under
// -race this is the package's safety proof, and the totals check that no
// increment is lost.
func TestCountersConcurrent(t *testing.T) {
	const goroutines, iters = 8, 1000
	var c Counters
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.SessionsOpened.Add(1)
				c.BatchesPushed.Add(1)
				c.EventsEmitted.Add(2)
				c.PoolHits.Add(1)
				c.PoolMisses.Add(1)
				_ = c.Snapshot() // concurrent readers are allowed
			}
		}()
	}
	wg.Wait()

	s := c.Snapshot()
	const n = goroutines * iters
	if s.SessionsOpened != n || s.BatchesPushed != n || s.EventsEmitted != 2*n {
		t.Fatalf("lost increments: %+v", s)
	}
	if s.PoolHits != n || s.PoolMisses != n || s.PoolHitRate != 0.5 {
		t.Fatalf("pool accounting off: %+v", s)
	}
}

// BenchmarkCounterAdd measures the per-increment cost of the hot-path
// counters; TestTelemetryAllocs pins them at zero allocations.
func BenchmarkCounterAdd(b *testing.B) {
	var c Counters
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.BatchesPushed.Add(1)
			c.EventsEmitted.Add(1)
		}
	})
}

// TestSnapshotCopiesEveryCounter gives every Counters field a distinct
// value and checks Snapshot carries it into the Snapshot field of the
// same name, so a counter added to one struct but not the other, or
// copied into the wrong field, fails here.
func TestSnapshotCopiesEveryCounter(t *testing.T) {
	var c Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).Addr().Interface().(*atomic.Uint64).Store(uint64(i + 1))
	}
	sv := reflect.ValueOf(c.Snapshot())
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		f := sv.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("Snapshot has no field %s", name)
		}
		if got := f.Uint(); got != uint64(i+1) {
			t.Errorf("Snapshot.%s = %d, want %d", name, got, i+1)
		}
	}
	if n := sv.NumField() - 1; n != cv.NumField() { // less PoolHitRate
		t.Fatalf("Snapshot has %d counter fields, Counters %d", n, cv.NumField())
	}
}
