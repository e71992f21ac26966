package adasense_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adasense"
	"adasense/internal/membership"
	"adasense/internal/reqtrace"
)

// modelBytes serializes the shared test system as a model container —
// the payload a replicated swap pushes over the wire.
func modelBytes(t *testing.T) []byte {
	t.Helper()
	sys, _ := trainedSystem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testCluster federates gw as self among replicas.
func testCluster(t *testing.T, gw *adasense.Gateway, self string, replicas []adasense.Replica, opts ...adasense.ClusterOption) *adasense.Cluster {
	t.Helper()
	c, err := adasense.NewCluster(gw, self, replicas, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// peerGateway spins an in-process HTTP replica backed by its own
// gateway: it accepts replicated model pushes on /v1/model and echoes
// anything else, recording what arrived. This stands in for a full
// cmd/adasense-gateway peer in root-package tests.
type peerGateway struct {
	gw     *adasense.Gateway
	ts     *httptest.Server
	swaps  atomic.Int64
	lastFw atomic.Value // string: last ForwardedHeader value seen
}

func newPeerGateway(t *testing.T) *peerGateway {
	t.Helper()
	p := &peerGateway{gw: testGateway(t, baselineFleet())}
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fw := r.Header.Get(adasense.ForwardedHeader); fw != "" {
			p.lastFw.Store(fw)
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/model" {
			if r.Header.Get(adasense.ReplicatedHeader) == "" {
				http.Error(w, "missing replication marker", http.StatusBadRequest)
				return
			}
			sys, err := adasense.LoadSystem(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := p.gw.SwapModel(sys); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			p.swaps.Add(1)
			fmt.Fprint(w, `{"ok":true}`)
			return
		}
		// Echo endpoint for forwarding tests.
		dump, _ := httputil.DumpRequest(r, false)
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusTeapot)
		w.Write(dump)
	}))
	t.Cleanup(p.ts.Close)
	return p
}

func TestNewClusterValidation(t *testing.T) {
	gw := testGateway(t, baselineFleet())
	two := []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: "http://peer-b.internal:8734"},
	}
	cases := []struct {
		name     string
		gw       *adasense.Gateway
		self     string
		replicas []adasense.Replica
	}{
		{"nil gateway", nil, "gw-a", two},
		{"empty self", gw, "", two},
		{"self not a member", gw, "gw-z", two},
		{"duplicate replica id", gw, "gw-a", []adasense.Replica{
			{ID: "gw-a"}, {ID: "gw-a", URL: "http://dup.internal:1"},
		}},
		{"peer without URL", gw, "gw-a", []adasense.Replica{
			{ID: "gw-a"}, {ID: "gw-b"},
		}},
		{"peer with non-http URL", gw, "gw-a", []adasense.Replica{
			{ID: "gw-a"}, {ID: "gw-b", URL: "ftp://peer-b:21"},
		}},
	}
	for _, tc := range cases {
		if _, err := adasense.NewCluster(tc.gw, tc.self, tc.replicas); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := adasense.NewCluster(gw, "gw-z", two); !errors.Is(err, adasense.ErrNotClusterMember) {
		t.Errorf("self outside the replica set: got %v, want ErrNotClusterMember", err)
	}
}

// TestClusterRoutePlacement checks the federation invariant at the
// Cluster level: two replicas built independently from the same member
// set agree on every device's owner, exactly one replica considers
// itself the owner, and placement spreads across the fleet.
func TestClusterRoutePlacement(t *testing.T) {
	replicas := []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: "http://peer-b.internal:8734"},
		{ID: "gw-c", URL: "http://peer-c.internal:8734"},
	}
	a := testCluster(t, testGateway(t, baselineFleet()), "gw-a", replicas)
	// Replica b lists the same member set with itself as self (and a
	// URL for a instead); order shuffled on purpose.
	b := testCluster(t, testGateway(t, baselineFleet()), "gw-b", []adasense.Replica{
		{ID: "gw-c", URL: "http://peer-c.internal:8734"},
		{ID: "gw-a", URL: "http://peer-a.internal:8734"},
		{ID: "gw-b"},
	})

	owned := make(map[string]int)
	for i := 0; i < 1000; i++ {
		dev := fmt.Sprintf("device-%d", i)
		repA, localA := a.Route(dev)
		repB, localB := b.Route(dev)
		if repA.ID != repB.ID {
			t.Fatalf("replicas disagree on %s: %q vs %q", dev, repA.ID, repB.ID)
		}
		if localA != (repA.ID == "gw-a") || localB != (repB.ID == "gw-b") {
			t.Fatalf("local flag inconsistent for %s", dev)
		}
		if a.Owns(dev) != localA {
			t.Fatalf("Owns disagrees with Route for %s", dev)
		}
		owned[repA.ID]++
	}
	for _, id := range []string{"gw-a", "gw-b", "gw-c"} {
		if owned[id] == 0 {
			t.Errorf("replica %s owns no devices of 1000", id)
		}
	}

	members := a.Members()
	if len(members) != 3 || members[0].ID != "gw-a" || members[2].ID != "gw-c" {
		t.Errorf("Members() = %v, want gw-a..gw-c sorted", members)
	}
	if a.Self() != "gw-a" || a.Gateway() == nil {
		t.Errorf("Self/Gateway accessors broken")
	}
}

func TestClusterForward(t *testing.T) {
	peer := newPeerGateway(t)
	gw := testGateway(t, baselineFleet())
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: peer.ts.URL},
	})

	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/dev-1/push?x=1", strings.NewReader("{}"))
	req.Header.Set("Authorization", "Bearer fleet-secret")
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	if err := c.Forward(rec, req, adasense.Replica{ID: "gw-b", URL: peer.ts.URL}); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusTeapot {
		t.Errorf("relayed status = %d, want the peer's 418", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "Authorization: Bearer fleet-secret") {
		t.Errorf("bearer token did not travel with the forward:\n%s", body)
	}
	if !strings.Contains(body, "/v1/sessions/dev-1/push?x=1") {
		t.Errorf("path+query not preserved:\n%s", body)
	}
	if got, _ := peer.lastFw.Load().(string); got != "gw-a" {
		t.Errorf("ForwardedHeader = %q, want sender id gw-a", got)
	}
	if s := gw.Stats(); s.RequestsForwarded != 1 || s.PeerErrors != 0 {
		t.Errorf("forward telemetry = fwd %d / err %d, want 1 / 0", s.RequestsForwarded, s.PeerErrors)
	}

	// Forwarding to yourself is a programming error, not a loop.
	if err := c.Forward(rec, req, adasense.Replica{ID: "gw-a"}); err == nil {
		t.Error("forward-to-self accepted")
	}

	// A dead peer reports an error without writing a response, and counts.
	dead := httptest.NewRecorder()
	req2 := httptest.NewRequest(http.MethodGet, "/v1/sessions/dev-1", nil)
	err := c.Forward(dead, req2, adasense.Replica{ID: "gw-x", URL: "http://127.0.0.1:1"})
	if err == nil {
		t.Fatal("forward to a dead peer succeeded")
	}
	if dead.Body.Len() != 0 {
		t.Errorf("failed forward wrote a body: %q", dead.Body.String())
	}
	if s := gw.Stats(); s.PeerErrors != 1 {
		t.Errorf("PeerErrors = %d, want 1", s.PeerErrors)
	}

	// A device that disconnects mid-forward is the client's failure,
	// not the peer's: the error surfaces but the peer-error series
	// stays untouched.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	req3 := httptest.NewRequest(http.MethodGet, "/v1/sessions/dev-1", nil).WithContext(gone)
	if err := c.Forward(httptest.NewRecorder(), req3, adasense.Replica{ID: "gw-b", URL: peer.ts.URL}); err == nil {
		t.Fatal("forward with a dead client context succeeded")
	}
	if s := gw.Stats(); s.PeerErrors != 1 {
		t.Errorf("client disconnect counted as a peer error: PeerErrors = %d, want still 1", s.PeerErrors)
	}
}

// TestClusterForwardRateLimited: a forward spends one token from the
// proxying replica's global bucket, so misdirected floods cannot turn a
// rate-limited replica into an unbounded proxy.
func TestClusterForwardRateLimited(t *testing.T) {
	peer := newPeerGateway(t)
	gw := testGateway(t, baselineFleet(),
		adasense.WithRateLimit(adasense.RateLimit{GlobalPerSec: 1, GlobalBurst: 1}))
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: peer.ts.URL},
	})
	to := adasense.Replica{ID: "gw-b", URL: peer.ts.URL}

	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/dev-1", nil)
	if err := c.Forward(httptest.NewRecorder(), req, to); err != nil {
		t.Fatalf("first forward (full bucket): %v", err)
	}
	denied := httptest.NewRecorder()
	err := c.Forward(denied, req, to)
	if !errors.Is(err, adasense.ErrRateLimited) {
		t.Fatalf("second forward = %v, want ErrRateLimited", err)
	}
	if denied.Body.Len() != 0 {
		t.Errorf("denied forward wrote a body: %q", denied.Body.String())
	}
	if s := gw.Stats(); s.RateLimitedGlobal != 1 || s.RequestsForwarded != 1 || s.PeerErrors != 0 {
		t.Errorf("telemetry = limited %d / forwarded %d / peer errors %d, want 1 / 1 / 0",
			s.RateLimitedGlobal, s.RequestsForwarded, s.PeerErrors)
	}
}

// TestClusterSwapModelReplicates is the fleet-retrain contract: one
// SwapModel lands on the local gateway and every peer, with per-replica
// reporting and telemetry.
func TestClusterSwapModelReplicates(t *testing.T) {
	peer := newPeerGateway(t)
	gw := testGateway(t, baselineFleet())
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: peer.ts.URL},
	})

	results, err := c.SwapModel(context.Background(), modelBytes(t))
	if err != nil {
		t.Fatalf("SwapModel: %v", err)
	}
	if len(results) != 2 || results[0].Replica != "gw-a" || results[1].Replica != "gw-b" {
		t.Fatalf("results = %+v, want gw-a then gw-b", results)
	}
	for _, res := range results {
		if res.Err != nil || res.Attempts != 1 {
			t.Errorf("replica %s: attempts=%d err=%v, want clean first-attempt success",
				res.Replica, res.Attempts, res.Err)
		}
	}
	if gw.Stats().ModelSwaps != 1 {
		t.Errorf("local ModelSwaps = %d, want 1", gw.Stats().ModelSwaps)
	}
	if peer.gw.Stats().ModelSwaps != 1 || peer.swaps.Load() != 1 {
		t.Errorf("peer saw %d swaps (handler %d), want 1", peer.gw.Stats().ModelSwaps, peer.swaps.Load())
	}
	if s := gw.Stats(); s.SwapsReplicated != 1 || s.PeerErrors != 0 {
		t.Errorf("swap telemetry = replicated %d / errors %d, want 1 / 0", s.SwapsReplicated, s.PeerErrors)
	}
}

// TestClusterSwapModelRetry proves the counted retry: a peer that fails
// twice then recovers is retried to success on the fixed two-retry
// schedule, and attempts plus peer errors are accounted.
func TestClusterSwapModelRetry(t *testing.T) {
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer flaky.Close()

	gw := testGateway(t, baselineFleet())
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: flaky.URL},
	})

	results, err := c.SwapModel(context.Background(), modelBytes(t))
	if err != nil {
		t.Fatalf("SwapModel with a recovering peer: %v", err)
	}
	if results[1].Attempts != 3 || results[1].Err != nil {
		t.Errorf("flaky peer result = %+v, want success on attempt 3", results[1])
	}
	if s := gw.Stats(); s.PeerErrors != 2 || s.SwapsReplicated != 1 {
		t.Errorf("telemetry = errors %d / replicated %d, want 2 / 1", s.PeerErrors, s.SwapsReplicated)
	}
}

// TestClusterSwapModelFailsFastOn4xx: a peer that deterministically
// rejects the push (wrong token, incompatible build) is not hammered
// with retries — one attempt, one counted peer error.
func TestClusterSwapModelFailsFastOn4xx(t *testing.T) {
	var calls atomic.Int64
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
	}))
	defer rejecting.Close()

	gw := testGateway(t, baselineFleet())
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: rejecting.URL},
	})

	results, err := c.SwapModel(context.Background(), modelBytes(t))
	if err == nil {
		t.Fatal("rejecting peer reported success")
	}
	if results[1].Attempts != 1 || results[1].Err == nil {
		t.Errorf("4xx peer result = %+v, want exactly 1 attempt", results[1])
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("rejecting peer was called %d times, want 1", got)
	}
	if s := gw.Stats(); s.PeerErrors != 1 {
		t.Errorf("PeerErrors = %d, want 1", s.PeerErrors)
	}
}

// TestClusterSwapModelPartialFailure: an unreachable peer exhausts its
// retries and is reported, while the local swap and healthy peers keep
// the new model.
func TestClusterSwapModelPartialFailure(t *testing.T) {
	peer := newPeerGateway(t)
	gw := testGateway(t, baselineFleet())
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: peer.ts.URL},
		{ID: "gw-c", URL: "http://127.0.0.1:1"},
	})

	results, err := c.SwapModel(context.Background(), modelBytes(t))
	if err == nil {
		t.Fatal("SwapModel with a dead replica reported success")
	}
	if !strings.Contains(err.Error(), `"gw-c"`) {
		t.Errorf("error does not name the failed replica: %v", err)
	}
	byID := map[string]adasense.SwapResult{}
	for _, res := range results {
		byID[res.Replica] = res
	}
	if byID["gw-a"].Err != nil || byID["gw-b"].Err != nil {
		t.Errorf("healthy replicas reported errors: %+v", results)
	}
	if dead := byID["gw-c"]; dead.Err == nil || dead.Attempts != 3 {
		t.Errorf("dead replica = %+v, want 3 exhausted attempts", dead)
	}
	if gw.Stats().ModelSwaps != 1 || peer.gw.Stats().ModelSwaps != 1 {
		t.Error("partial failure rolled back healthy replicas")
	}
}

// TestClusterSwapModelDetachedFromUploader: once the local swap
// commits, the peer fan-out survives the uploader's context dying — a
// disconnecting client must not strand peers on the old model. A
// context already dead on entry aborts before any replica is touched.
func TestClusterSwapModelDetachedFromUploader(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer slow.Close()

	gw := testGateway(t, baselineFleet())
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: slow.URL},
	})

	// Uploader's deadline expires long before the peer answers.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	results, err := c.SwapModel(ctx, modelBytes(t))
	if err != nil {
		t.Fatalf("fan-out did not survive the uploader's deadline: %v", err)
	}
	if results[1].Err != nil || results[1].Attempts != 1 {
		t.Errorf("slow peer = %+v, want success despite the dead uploader context", results[1])
	}
	if gw.Stats().SwapsReplicated != 1 {
		t.Errorf("SwapsReplicated = %d, want 1", gw.Stats().SwapsReplicated)
	}

	// Already dead on entry: nothing happens anywhere.
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, err := c.SwapModel(dead, modelBytes(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-on-entry context: got %v, want context.Canceled", err)
	}
	if gw.Stats().ModelSwaps != 1 {
		t.Errorf("dead-on-entry context still swapped: %d swaps", gw.Stats().ModelSwaps)
	}
}

// TestClusterSwapModelInvalid: a corrupt container is rejected before
// anything reaches the fleet.
func TestClusterSwapModelInvalid(t *testing.T) {
	peer := newPeerGateway(t)
	gw := testGateway(t, baselineFleet())
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: peer.ts.URL},
	})
	if _, err := c.SwapModel(context.Background(), []byte("not a model")); err == nil {
		t.Fatal("corrupt model accepted")
	}
	if gw.Stats().ModelSwaps != 0 || peer.gw.Stats().ModelSwaps != 0 {
		t.Error("corrupt model touched a replica")
	}
}

// TestClusterFleetSwapDuringDrain is the federation race proof (run
// under -race in CI): device fleets push through two in-process replicas
// while a replicated SwapModel lands and one replica drains. Nothing may
// tear — pushes either succeed or fail with the documented errors, both
// replicas observe the swap, and the draining replica empties.
func TestClusterFleetSwapDuringDrain(t *testing.T) {
	peer := newPeerGateway(t)
	gw := testGateway(t, baselineFleet())
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: peer.ts.URL},
	})

	const perReplica = 6
	batch := gatewayBatch(t)
	var wg sync.WaitGroup
	start := make(chan struct{})
	pushFleet := func(target *adasense.Gateway, prefix string) {
		for i := 0; i < perReplica; i++ {
			sess, err := target.Open(fmt.Sprintf("%s-%d", prefix, i))
			if err != nil {
				t.Errorf("open %s-%d: %v", prefix, i, err)
				continue
			}
			wg.Add(1)
			go func(sess *adasense.GatewaySession) {
				defer wg.Done()
				<-start
				for j := 0; j < 25; j++ {
					if _, err := sess.Push(batch); err != nil {
						if errors.Is(err, adasense.ErrSessionClosed) {
							return // drained under us: the documented outcome
						}
						t.Errorf("push %s: %v", sess.ID(), err)
						return
					}
				}
			}(sess)
		}
	}
	pushFleet(gw, "dev-a")
	pushFleet(peer.gw, "dev-b")

	wg.Add(2)
	go func() { // the replicated swap lands mid-traffic
		defer wg.Done()
		<-start
		if _, err := c.SwapModel(context.Background(), modelBytes(t)); err != nil {
			t.Errorf("replicated swap: %v", err)
		}
	}()
	go func() { // replica b drains mid-traffic
		defer wg.Done()
		<-start
		time.Sleep(2 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := peer.gw.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	close(start)
	wg.Wait()

	if gw.Stats().ModelSwaps != 1 || peer.gw.Stats().ModelSwaps != 1 {
		t.Errorf("swaps = %d local / %d peer, want 1 / 1",
			gw.Stats().ModelSwaps, peer.gw.Stats().ModelSwaps)
	}
	if n := peer.gw.NumSessions(); n != 0 {
		t.Errorf("drained replica still holds %d sessions", n)
	}
	if !peer.gw.Draining() || gw.Draining() {
		t.Error("drain state leaked across replicas")
	}
}

// TestClusterForwardRelaysNon2xx: once the peer has answered, Forward
// relays whatever it said — 4xx and 5xx included — and returns nil.
// A peer that answers is a working peer; only unreachable peers (covered
// in TestClusterForward) feed the peer-error series.
func TestClusterForwardRelaysNon2xx(t *testing.T) {
	statuses := []int{http.StatusNotFound, http.StatusTooManyRequests, http.StatusServiceUnavailable}
	var next atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status := statuses[next.Load()]
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":"peer says %d"}`, status)
	}))
	defer peer.Close()

	gw := testGateway(t, baselineFleet())
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: peer.URL},
	})
	to := adasense.Replica{ID: "gw-b", URL: peer.URL}
	for i, status := range statuses {
		next.Store(int64(i))
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/sessions/dev-1", nil)
		if err := c.Forward(rec, req, to); err != nil {
			t.Fatalf("forward relaying a %d errored: %v", status, err)
		}
		if rec.Code != status {
			t.Errorf("relayed status = %d, want the peer's %d", rec.Code, status)
		}
		if want := fmt.Sprintf(`{"error":"peer says %d"}`, status); rec.Body.String() != want {
			t.Errorf("relayed body = %q, want %q", rec.Body.String(), want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("relayed content type = %q", ct)
		}
	}
	if s := gw.Stats(); s.RequestsForwarded != uint64(len(statuses)) || s.PeerErrors != 0 {
		t.Errorf("telemetry = forwarded %d / peer errors %d, want %d / 0",
			s.RequestsForwarded, s.PeerErrors, len(statuses))
	}
}

// TestClusterForwardTracePropagation: a forward carries the request's
// trace id with the hop count advanced, records a "forward" span on the
// trace and a forward-stage latency observation — and an untraced
// request stamps no trace headers at all (the receiver mints its own).
// The loop-guard marker travels alongside the trace headers unchanged.
func TestClusterForwardTracePropagation(t *testing.T) {
	type seen struct{ trace, hop, forwarded string }
	var last atomic.Value
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		last.Store(seen{
			trace:     r.Header.Get(adasense.TraceHeader),
			hop:       r.Header.Get(adasense.TraceHopHeader),
			forwarded: r.Header.Get(adasense.ForwardedHeader),
		})
		fmt.Fprint(w, "ok")
	}))
	defer peer.Close()

	gw := testGateway(t, baselineFleet())
	c := testCluster(t, gw, "gw-a", []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: peer.URL},
	})
	to := adasense.Replica{ID: "gw-b", URL: peer.URL}

	tr := reqtrace.New()
	tr.Hop = 1 // pretend this replica itself received a forwarded hop
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/dev-1", nil)
	req = req.WithContext(reqtrace.NewContext(req.Context(), tr))
	if err := c.Forward(httptest.NewRecorder(), req, to); err != nil {
		t.Fatal(err)
	}
	got, _ := last.Load().(seen)
	if got.trace != tr.ID {
		t.Errorf("peer saw trace id %q, want %q", got.trace, tr.ID)
	}
	if got.hop != "2" {
		t.Errorf("peer saw hop %q, want 2 (sender's 1 + 1)", got.hop)
	}
	if got.forwarded != "gw-a" {
		t.Errorf("loop guard %q did not travel with the trace, want gw-a", got.forwarded)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "forward" || spans[0].Dur <= 0 {
		t.Errorf("trace spans = %+v, want one positive forward span", spans)
	}
	if h := gw.Stats().Latency.Stages["forward"]; h.Count != 1 {
		t.Errorf("forward stage histogram count = %d, want 1", h.Count)
	}

	// No trace in the context → no trace headers on the wire.
	req2 := httptest.NewRequest(http.MethodGet, "/v1/sessions/dev-1", nil)
	if err := c.Forward(httptest.NewRecorder(), req2, to); err != nil {
		t.Fatal(err)
	}
	got, _ = last.Load().(seen)
	if got.trace != "" || got.hop != "" {
		t.Errorf("untraced forward stamped trace headers: id %q hop %q", got.trace, got.hop)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peersFile writes (or atomically rewrites) a membership file.
func peersFile(t *testing.T, path, content string) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// TestClusterWithSourceRebalance is the dynamic-membership contract at
// the library level: a peers-file change swaps in a new generation,
// exactly the local sessions whose devices changed owner are handed off
// (closed after their in-flight push), and the rebalance telemetry
// advances. An invalid intermediate membership never disturbs the
// serving view.
func TestClusterWithSourceRebalance(t *testing.T) {
	gw := testGateway(t, baselineFleet())
	path := filepath.Join(t.TempDir(), "peers.conf")
	peersFile(t, path, "gw-a\ngw-b=http://127.0.0.1:1\n")
	src, err := membership.NewFileSource(path, membership.WithPollInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c, err := adasense.NewClusterWithSource(gw, "gw-a", src)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Generation() != 1 {
		t.Fatalf("initial generation = %d, want 1", c.Generation())
	}

	// A fleet of sessions opened locally, wherever the ring puts them.
	const devices = 60
	ids := make([]string, devices)
	sessions := make(map[string]*adasense.GatewaySession, devices)
	for i := range ids {
		ids[i] = fmt.Sprintf("hand-dev-%d", i)
		sess, err := gw.Open(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		sessions[ids[i]] = sess
	}

	// An invalid membership (peer without a URL) parses at the file
	// layer but fails cluster validation: the serving view must not
	// move, and the rejection surfaces through MembershipErr.
	peersFile(t, path, "gw-a\ngw-b=http://127.0.0.1:1\ngw-broken\n")
	waitFor(t, 5*time.Second, "the rejection to surface", func() bool { return c.MembershipErr() != nil })
	if got := c.Generation(); got != 1 {
		t.Fatalf("invalid membership applied: generation %d", got)
	}
	if s := gw.Stats(); s.Rebalances != 0 || s.SessionsHandedOff != 0 {
		t.Fatalf("invalid membership touched telemetry: %+v", s)
	}

	// gw-c joins: its arc moves off gw-a (and nominally gw-b); every
	// local session whose device left gw-a must be closed, every other
	// one must keep serving. (The rejected intermediate still consumed a
	// source generation, so the cluster jumps straight past it.)
	peersFile(t, path, "gw-a\ngw-b=http://127.0.0.1:1\ngw-c=http://127.0.0.1:2\n")
	waitFor(t, 5*time.Second, "the join to apply", func() bool { return c.Generation() > 1 })
	if err := c.MembershipErr(); err != nil {
		t.Errorf("MembershipErr = %v after a clean apply, want nil", err)
	}

	keep := 0
	for _, id := range ids {
		if c.Owns(id) {
			keep++
		}
	}
	if keep == 0 || keep == devices {
		t.Fatalf("degenerate rebalance: gw-a kept %d of %d devices", keep, devices)
	}
	waitFor(t, 5*time.Second, "handoff to settle", func() bool { return gw.NumSessions() == keep })
	for _, id := range ids {
		_, live := gw.Lookup(id)
		if live != c.Owns(id) {
			t.Errorf("device %s: live=%v owned=%v — session not on its ring-assigned owner", id, live, c.Owns(id))
		}
	}
	s := gw.Stats()
	if s.Rebalances != 1 {
		t.Errorf("Rebalances = %d, want 1", s.Rebalances)
	}
	if want := uint64(devices - keep); s.SessionsHandedOff != want {
		t.Errorf("SessionsHandedOff = %d, want %d", s.SessionsHandedOff, want)
	}
	if s.SessionsClosed != 0 || s.SessionsEvicted != 0 {
		t.Errorf("handoff leaked into close/evict series: closed=%d evicted=%d", s.SessionsClosed, s.SessionsEvicted)
	}
	if len(c.Members()) != 3 {
		t.Errorf("Members() = %v, want 3 replicas", c.Members())
	}

	// A handed-off session answers the documented error on its next
	// push — the signal that sends the device back through the ring to
	// its new owner.
	batch := gatewayBatch(t)
	for _, id := range ids {
		if c.Owns(id) {
			continue
		}
		if _, err := sessions[id].Push(batch); !errors.Is(err, adasense.ErrSessionClosed) {
			t.Errorf("push on handed-off session %s = %v, want ErrSessionClosed", id, err)
		}
		break
	}

	// MarkStaleRoute feeds the stale-route series.
	c.MarkStaleRoute()
	if got := gw.Stats().StaleRoutes; got != 1 {
		t.Errorf("StaleRoutes = %d, want 1", got)
	}

	// Close is idempotent and stops the subscription: further file
	// changes no longer apply.
	gen := c.Generation()
	c.Close()
	c.Close()
	peersFile(t, path, "gw-a\ngw-b=http://127.0.0.1:1\n")
	time.Sleep(20 * time.Millisecond)
	if got := c.Generation(); got != gen {
		t.Errorf("membership applied after Close: generation %d, want %d", got, gen)
	}
}

// TestClusterWithSourceSelfAbsent: a replica missing from the current
// membership (still booting, or already retired) is a pure forwarder —
// it owns nothing — and starts owning devices the moment a snapshot
// includes it. This is what lets a joining replica start its poller
// before discovery announces it.
func TestClusterWithSourceSelfAbsent(t *testing.T) {
	gw := testGateway(t, baselineFleet())
	path := filepath.Join(t.TempDir(), "peers.conf")
	peersFile(t, path, "gw-b=http://127.0.0.1:1\n")
	src, err := membership.NewFileSource(path, membership.WithPollInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c, err := adasense.NewClusterWithSource(gw, "gw-a", src)
	if err != nil {
		t.Fatalf("absent self rejected: %v", err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if dev := fmt.Sprintf("dev-%d", i); c.Owns(dev) {
			t.Fatalf("absent replica owns %s", dev)
		}
	}
	if rep, local := c.Route("dev-1"); local || rep.ID != "gw-b" {
		t.Fatalf("Route on an absent replica = %+v local=%v, want gw-b remote", rep, local)
	}

	peersFile(t, path, "gw-a\ngw-b=http://127.0.0.1:1\n")
	waitFor(t, 5*time.Second, "self to join", func() bool { return c.Generation() == 2 })
	owns := 0
	for i := 0; i < 50; i++ {
		if c.Owns(fmt.Sprintf("dev-%d", i)) {
			owns++
		}
	}
	if owns == 0 {
		t.Error("joined replica still owns nothing")
	}

	// The static constructor keeps its stricter contract: self must be
	// a member from the start.
	if _, err := adasense.NewCluster(gw, "gw-z", []adasense.Replica{
		{ID: "gw-b", URL: "http://127.0.0.1:1"},
	}); !errors.Is(err, adasense.ErrNotClusterMember) {
		t.Errorf("static constructor accepted an absent self: %v", err)
	}
}
