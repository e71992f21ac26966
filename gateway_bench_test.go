// BenchmarkGateway* is the fleet-gateway baseline group: session churn
// through the sharded registry, lookup on a populated fleet, one-shot
// Classify overhead versus a bare Service, and telemetry counter
// overhead. Run alongside BenchmarkService* to price the gateway layer.
// TestGatewayAllocs pins the allocation-free paths among them at zero.
package adasense_test

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"adasense"
	"adasense/internal/telemetry"
)

// fleetReplicas is a five-member fleet around "gw-self" whose peers are
// never dialed: routing is pure ring math.
func fleetReplicas() []adasense.Replica {
	replicas := []adasense.Replica{{ID: "gw-self"}}
	for i := 0; i < 4; i++ {
		replicas = append(replicas, adasense.Replica{
			ID:  fmt.Sprintf("gw-peer-%d", i),
			URL: fmt.Sprintf("http://peer-%d.internal:8734", i),
		})
	}
	return replicas
}

// ownedDevice returns the first "bench-dev-N" id that c's local replica
// owns (local) or that a peer owns (!local).
func ownedDevice(tb testing.TB, c *adasense.Cluster, local bool) string {
	tb.Helper()
	for i := 0; i < 10000; i++ {
		if id := fmt.Sprintf("bench-dev-%d", i); c.Owns(id) == local {
			return id
		}
	}
	tb.Fatalf("no device hashes to a replica with local=%v", local)
	return ""
}

// TestGatewayAllocs pins the per-request work a federated gateway does
// around a push at zero allocations: the routing decision for a device
// this replica owns and for one a peer owns (one ring hash plus a binary
// search), the id lookup on a thousand-device fleet, and the serving
// counters every push adds to.
func TestGatewayAllocs(t *testing.T) {
	gw := testGateway(t, baselineFleet())
	c, err := adasense.NewCluster(gw, "gw-self", fleetReplicas())
	if err != nil {
		t.Fatal(err)
	}
	local, remote := ownedDevice(t, c, true), ownedDevice(t, c, false)
	ids := make([]string, 1000)
	for i := range ids {
		ids[i] = fmt.Sprintf("device-%d", i)
		if _, err := gw.Open(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	var tel telemetry.Counters
	cases := []struct {
		name string
		fn   func()
	}{
		{"cluster route local", func() {
			if rep, isLocal := c.Route(local); !isLocal || rep.ID != "gw-self" {
				t.Fatal("local device routed to a peer")
			}
		}},
		{"cluster route remote", func() {
			if rep, isLocal := c.Route(remote); isLocal || rep.ID == "gw-self" {
				t.Fatal("remote device routed locally")
			}
		}},
		{"gateway lookup", func() {
			if _, ok := gw.Lookup(ids[next%len(ids)]); !ok {
				t.Fatal("lookup miss")
			}
			next++
		}},
		{"telemetry count", func() {
			tel.BatchesPushed.Add(1)
			tel.EventsEmitted.Add(1)
			tel.PoolHits.Add(1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
				t.Fatalf("%v allocs per call, want 0", got)
			}
		})
	}
}

// TestPushAppendAllocs pins a push that completes a classification tick
// at zero allocations when the caller reuses its events buffer: through
// a GatewaySession (batch check, rate limit, engine, rollout hooks) and
// through a bare Session.
func TestPushAppendAllocs(t *testing.T) {
	gw := testGateway(t, baselineFleet())
	gs, err := gw.Open("alloc-dev")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := testService(t, adasense.WithControllerFactory(func() adasense.Controller {
		return adasense.NewBaselineController()
	})).OpenSession("alloc-dev")
	if err != nil {
		t.Fatal(err)
	}
	b := gatewayBatch(t) // one hop at the top configuration: one tick per push
	var events []adasense.Event
	cases := []struct {
		name string
		push func(dst []adasense.Event, b *adasense.Batch) ([]adasense.Event, error)
	}{
		{"gateway session", gs.PushAppend},
		{"session", sess.PushAppend},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			push := func() {
				events, err = tc.push(events[:0], b)
				if err != nil || len(events) != 1 {
					t.Fatalf("push = %d events, %v; want one tick", len(events), err)
				}
			}
			push() // size the events buffer
			if got := testing.AllocsPerRun(100, push); got != 0 {
				t.Fatalf("%v allocs per push, want 0", got)
			}
		})
	}
}

func benchCluster(b *testing.B) *adasense.Cluster {
	b.Helper()
	c, err := adasense.NewCluster(benchGateway(b), "gw-self", fleetReplicas())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkClusterRoute measures the federation routing decision on the
// local-hit path — the per-request tax every device of a five-replica
// fleet pays before its gateway work begins. TestGatewayAllocs pins it
// at zero allocations.
func BenchmarkClusterRoute(b *testing.B) {
	c := benchCluster(b)
	local := ownedDevice(b, c, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, isLocal := c.Route(local); !isLocal || rep.ID != "gw-self" {
			b.Fatal("local device routed to a peer")
		}
	}
}

// BenchmarkClusterRouteRemote prices the routing decision when the
// device belongs to a peer (the forward itself is network-bound and not
// measured here).
func BenchmarkClusterRouteRemote(b *testing.B) {
	c := benchCluster(b)
	remote := ownedDevice(b, c, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, isLocal := c.Route(remote); isLocal || rep.ID == "gw-self" {
			b.Fatal("remote device routed locally")
		}
	}
}

// benchGateway mirrors benchService: the benchmark lab's classifier with
// the fleet pinned at the top configuration.
func benchGateway(b *testing.B) *adasense.Gateway {
	b.Helper()
	sys := &adasense.System{Network: lab(b).Net}
	gw, err := adasense.NewGateway(sys,
		adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
			return adasense.NewBaselineController()
		})))
	if err != nil {
		b.Fatal(err)
	}
	return gw
}

// BenchmarkGatewaySessionChurn measures the registry-tracked session
// lifecycle — open, lookup, one 1 s push, close — the gateway-side cost a
// connecting device pays on top of BenchmarkServiceOpenSession.
func BenchmarkGatewaySessionChurn(b *testing.B) {
	gw := benchGateway(b)
	batch := benchBatch(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := gw.Open("bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := gw.Lookup("bench"); !ok {
			b.Fatal("lookup lost the session")
		}
		if _, err := sess.Push(batch); err != nil {
			b.Fatal(err)
		}
		sess.Close()
	}
}

// BenchmarkGatewayLookup measures id lookup on a thousand-device fleet —
// the hot path every routed request pays.
func BenchmarkGatewayLookup(b *testing.B) {
	gw := benchGateway(b)
	const fleet = 1000
	ids := make([]string, fleet)
	for i := range ids {
		ids[i] = fmt.Sprintf("device-%d", i)
		if _, err := gw.Open(ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := gw.Lookup(ids[i%fleet]); !ok {
				b.Fatal("lookup miss")
			}
			i++
		}
	})
}

// BenchmarkGatewayConcurrentClassify measures one-shot classification
// through the gateway's atomic service pointer; compare with
// BenchmarkServiceConcurrentClassify for the gateway's added overhead
// (one atomic load plus telemetry).
func BenchmarkGatewayConcurrentClassify(b *testing.B) {
	gw := benchGateway(b)
	batch := benchBatch(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := gw.Classify(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGatewayConcurrentSessions measures streaming throughput with
// one registry-tracked session per worker — the gateway's steady state,
// comparable to BenchmarkServiceConcurrentSessions.
func BenchmarkGatewayConcurrentSessions(b *testing.B) {
	gw := benchGateway(b)
	batch := benchBatch(b, 1)
	var n atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprintf("bench-%d", n.Add(1))
		sess, err := gw.Open(id)
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		for pb.Next() {
			if _, err := sess.Push(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGatewayTelemetry measures the serving counters in isolation —
// the per-batch accounting cost every push pays — and Stats(), the
// /metrics snapshot cost.
func BenchmarkGatewayTelemetry(b *testing.B) {
	b.Run("count", func(b *testing.B) {
		var c telemetry.Counters
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.BatchesPushed.Add(1)
				c.EventsEmitted.Add(1)
				c.PoolHits.Add(1)
			}
		})
	})
	b.Run("snapshot", func(b *testing.B) {
		gw := benchGateway(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := gw.Stats(); s.ModelSwaps != 0 {
				b.Fatal("unexpected swap")
			}
		}
	})
}

// BenchmarkGatewayRateLimitCheck prices the admission check a rate-limited
// push pays on top of BenchmarkGatewaySessionChurn: one sharded
// device-bucket take plus one global-bucket take, with rates high enough
// that nothing is denied.
func BenchmarkGatewayRateLimitCheck(b *testing.B) {
	sys := &adasense.System{Network: lab(b).Net}
	gw, err := adasense.NewGateway(sys,
		adasense.WithRateLimit(adasense.RateLimit{
			DevicePerSec: 1e9, DeviceBurst: 1 << 30,
			GlobalPerSec: 1e9, GlobalBurst: 1 << 30,
		}),
		adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
			return adasense.NewBaselineController()
		})))
	if err != nil {
		b.Fatal(err)
	}
	sess, err := gw.Open("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	batch := benchBatch(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Push(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayWriteMetrics prices one Prometheus scrape: a Stats
// snapshot plus the text exposition of every series.
func BenchmarkGatewayWriteMetrics(b *testing.B) {
	gw := benchGateway(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gw.WriteMetrics(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
