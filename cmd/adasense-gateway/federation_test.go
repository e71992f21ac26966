package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adasense"
	"adasense/internal/membership"
)

// fedReplica is one full federated replica: a real HTTP server over its
// own gateway and cluster, plus in-process handles for assertions.
type fedReplica struct {
	id      string
	base    string
	gw      *adasense.Gateway
	cluster *adasense.Cluster
	ts      *httptest.Server
}

// newFederatedFleet starts two full replica servers federated over one
// static member list (and, when token is non-empty, one shared bearer
// token). Listeners are allocated before either server starts so each
// cluster can be built with both base URLs.
func newFederatedFleet(t *testing.T, token string) (*fedReplica, *fedReplica) {
	t.Helper()
	tsA := httptest.NewUnstartedServer(http.NotFoundHandler())
	tsB := httptest.NewUnstartedServer(http.NotFoundHandler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	replicas := []adasense.Replica{
		{ID: "gw-a", URL: "http://" + tsA.Listener.Addr().String()},
		{ID: "gw-b", URL: "http://" + tsB.Listener.Addr().String()},
	}
	build := func(self string, ts *httptest.Server) *fedReplica {
		opts := []adasense.GatewayOption{
			adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
				return adasense.NewBaselineController()
			})),
		}
		var copts []adasense.ClusterOption
		if token != "" {
			opts = append(opts, adasense.WithAuth(token))
			copts = append(copts, adasense.WithPeerAuth(token))
		}
		gw, err := adasense.NewGateway(quickSystem(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := adasense.NewCluster(gw, self, replicas, copts...)
		if err != nil {
			t.Fatal(err)
		}
		ts.Config.Handler = newServer(gw, cluster)
		ts.Start()
		return &fedReplica{id: self, base: ts.URL, gw: gw, cluster: cluster, ts: ts}
	}
	return build("gw-a", tsA), build("gw-b", tsB)
}

// deviceOwnedBy finds a device id the ring places on the given replica.
func deviceOwnedBy(t *testing.T, c *adasense.Cluster, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("fed-dev-%d", i)
		if rep, _ := c.Route(id); rep.ID == owner {
			return id
		}
	}
	t.Fatalf("no device hashes to %s in 10000 tries", owner)
	return ""
}

// doFed runs one request with an optional bearer token and raw or JSON
// body, decoding the JSON response into out unless nil.
func doFed(t *testing.T, method, url, token string, body []byte, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestParsePeers(t *testing.T) {
	reps, err := parsePeers("gw-a, gw-b=http://host-b:8734, gw-c=")
	if err != nil {
		t.Fatal(err)
	}
	want := []adasense.Replica{
		{ID: "gw-a"},
		{ID: "gw-b", URL: "http://host-b:8734"},
		{ID: "gw-c"},
	}
	if len(reps) != len(want) {
		t.Fatalf("parsed %v, want %v", reps, want)
	}
	for i := range want {
		if reps[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, reps[i], want[i])
		}
	}
	for _, bad := range []string{"", "=http://host:1", ",,"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

// TestFederationMixedFleet is the acceptance scenario: two httptest
// replicas serve a mixed fleet. Every device opened through replica A
// lands on its ring-assigned replica — misdirected opens, pushes, gets
// and closes are forwarded transparently — and the forwards are counted.
func TestFederationMixedFleet(t *testing.T) {
	a, b := newFederatedFleet(t, "")

	// Open ten devices, all through replica A, whoever owns them.
	const devices = 10
	owners := map[string]string{}
	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("mixed-%d", i)
		rep, _ := a.cluster.Route(id)
		owners[id] = rep.ID
		var sess sessionJSON
		if code := doFed(t, "POST", a.base+"/v1/sessions", "", jsonBody(t, map[string]string{"id": id}), &sess); code != 201 {
			t.Fatalf("open %s via A = %d", id, code)
		}
		if sess.ID != id {
			t.Fatalf("open %s returned %+v", id, sess)
		}
	}

	// Every session lives on exactly its ring-assigned replica.
	forwardedOpens := 0
	for id, owner := range owners {
		ownGw, otherGw := a.gw, b.gw
		if owner == "gw-b" {
			ownGw, otherGw = b.gw, a.gw
			forwardedOpens++
		}
		if _, ok := ownGw.Lookup(id); !ok {
			t.Errorf("device %s missing from its owner %s", id, owner)
		}
		if _, ok := otherGw.Lookup(id); ok {
			t.Errorf("device %s duplicated off its owner %s", id, owner)
		}
	}
	if forwardedOpens == 0 || forwardedOpens == devices {
		t.Fatalf("degenerate placement: %d of %d devices on gw-b — ring not mixing", forwardedOpens, devices)
	}
	if live := a.gw.NumSessions() + b.gw.NumSessions(); live != devices {
		t.Errorf("fleet holds %d sessions, want %d", live, devices)
	}

	// A misdirected push is forwarded transparently: same wire contract
	// as a local one.
	bDev := deviceOwnedBy(t, a.cluster, "gw-b")
	if code := doFed(t, "POST", a.base+"/v1/sessions", "", jsonBody(t, map[string]string{"id": bDev}), nil); code != 201 {
		t.Fatalf("open %s = %d", bDev, code)
	}
	var pushed pushResponse
	if code := doFed(t, "POST", a.base+"/v1/sessions/"+bDev+"/push", "", jsonBody(t, wireBatch(t, 2)), &pushed); code != 200 {
		t.Fatalf("forwarded push = %d", code)
	}
	if len(pushed.Events) == 0 {
		t.Fatalf("forwarded push returned no events: %+v", pushed)
	}
	var got sessionJSON
	if code := doFed(t, "GET", a.base+"/v1/sessions/"+bDev, "", nil, &got); code != 200 || got.ID != bDev {
		t.Errorf("forwarded get = %d %+v", code, got)
	}
	// Closing through the non-owner forwards too.
	if code := doFed(t, "DELETE", a.base+"/v1/sessions/"+bDev, "", nil, nil); code != 204 {
		t.Errorf("forwarded close = %d, want 204", code)
	}
	if _, ok := b.gw.Lookup(bDev); ok {
		t.Error("forwarded close left the session on its owner")
	}

	// The forwards are visible in replica A's metrics; replica B, which
	// only ever served locally, forwarded nothing.
	mA, mB := scrapeMetrics(t, a.base), scrapeMetrics(t, b.base)
	wantForwards := float64(forwardedOpens + 4) // opens + open/push/get/close of bDev
	if mA["adasense_forwarded_total"] != wantForwards {
		t.Errorf("A forwarded_total = %v, want %v", mA["adasense_forwarded_total"], wantForwards)
	}
	if mB["adasense_forwarded_total"] != 0 || mB["adasense_peer_errors_total"] != 0 {
		t.Errorf("B federation counters = fwd %v / err %v, want 0 / 0",
			mB["adasense_forwarded_total"], mB["adasense_peer_errors_total"])
	}
}

// TestFederationReplicatedModelPush: one POST /v1/model retrains the
// whole fleet — both replicas swap, the response reports each replica,
// and live sessions on both replicas observe the new model on migrate.
func TestFederationReplicatedModelPush(t *testing.T) {
	a, b := newFederatedFleet(t, "")
	devA := deviceOwnedBy(t, a.cluster, "gw-a")
	devB := deviceOwnedBy(t, a.cluster, "gw-b")
	for _, dev := range []string{devA, devB} {
		if code := doFed(t, "POST", a.base+"/v1/sessions", "", jsonBody(t, map[string]string{"id": dev}), nil); code != 201 {
			t.Fatalf("open %s = %d", dev, code)
		}
	}
	sessA, okA := a.gw.Lookup(devA)
	sessB, okB := b.gw.Lookup(devB)
	if !okA || !okB {
		t.Fatal("sessions not on their owners")
	}
	svcA, svcB := sessA.Service(), sessB.Service()

	var model bytes.Buffer
	if err := quickSystem(t).Save(&model); err != nil {
		t.Fatal(err)
	}
	var report struct {
		ModelSwaps uint64            `json:"model_swaps"`
		Replicas   []swapReplicaJSON `json:"replicas"`
	}
	if code := doFed(t, "POST", a.base+"/v1/model", "", model.Bytes(), &report); code != 200 {
		t.Fatalf("replicated model push = %d", code)
	}
	if len(report.Replicas) != 2 {
		t.Fatalf("report = %+v, want both replicas", report)
	}
	for _, rep := range report.Replicas {
		if !rep.OK || rep.Attempts != 1 || rep.Error != "" {
			t.Errorf("replica report %+v, want clean success", rep)
		}
	}
	if a.gw.Stats().ModelSwaps != 1 || b.gw.Stats().ModelSwaps != 1 {
		t.Fatalf("swaps = %d / %d, want 1 on both replicas",
			a.gw.Stats().ModelSwaps, b.gw.Stats().ModelSwaps)
	}

	// Sessions on both replicas observe the upload: migrate re-pins them
	// onto the pushed model (devB's migrate is sent to the wrong replica
	// on purpose — it forwards).
	if code := doFed(t, "POST", a.base+"/v1/sessions/"+devA+"/migrate", "", nil, nil); code != 200 {
		t.Fatalf("migrate %s = %d", devA, code)
	}
	if code := doFed(t, "POST", a.base+"/v1/sessions/"+devB+"/migrate", "", nil, nil); code != 200 {
		t.Fatalf("forwarded migrate %s = %d", devB, code)
	}
	if sessA.Service() == svcA || sessB.Service() == svcB {
		t.Error("a session kept its pre-push model after migrate")
	}

	mA := scrapeMetrics(t, a.base)
	if mA["adasense_replicated_swaps_total"] != 1 || mA["adasense_model_swaps_total"] != 1 {
		t.Errorf("A swap series = replicated %v / local %v, want 1 / 1",
			mA["adasense_replicated_swaps_total"], mA["adasense_model_swaps_total"])
	}
	if mB := scrapeMetrics(t, b.base); mB["adasense_model_swaps_total"] != 1 || mB["adasense_replicated_swaps_total"] != 0 {
		t.Errorf("B swap series = local %v / replicated %v, want 1 / 0",
			mB["adasense_model_swaps_total"], mB["adasense_replicated_swaps_total"])
	}
}

// TestFederationSpoofedMarkersIgnored: loop-guard headers are honored
// only when their value names a known peer replica, so a client
// stamping arbitrary values cannot bypass ring routing or turn a
// fleet-wide model push into a single-replica one. This guards against
// accidents and unknown values only — replica ids are not secrets (they
// appear in error bodies and swap reports), so a token-holding client
// naming a real peer id can still bypass; docs/federation.md therefore
// requires stripping these headers at the edge proxy.
func TestFederationSpoofedMarkersIgnored(t *testing.T) {
	a, b := newFederatedFleet(t, "")
	bDev := deviceOwnedBy(t, a.cluster, "gw-b")

	req, err := http.NewRequest("POST", a.base+"/v1/sessions",
		bytes.NewReader(jsonBody(t, map[string]string{"id": bDev})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(adasense.ForwardedHeader, "mallory")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("open with spoofed forward marker = %d", resp.StatusCode)
	}
	if _, onA := a.gw.Lookup(bDev); onA {
		t.Error("spoofed forward marker pinned a session off its owner")
	}
	if _, onB := b.gw.Lookup(bDev); !onB {
		t.Error("spoofed forward marker kept the session from its owner")
	}

	var model bytes.Buffer
	if err := quickSystem(t).Save(&model); err != nil {
		t.Fatal(err)
	}
	req, err = http.NewRequest("POST", a.base+"/v1/model", bytes.NewReader(model.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(adasense.ReplicatedHeader, "mallory")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("model push with spoofed replication marker = %d", resp.StatusCode)
	}
	if a.gw.Stats().ModelSwaps != 1 || b.gw.Stats().ModelSwaps != 1 {
		t.Errorf("spoofed replication marker stopped the fleet-wide swap: %d / %d",
			a.gw.Stats().ModelSwaps, b.gw.Stats().ModelSwaps)
	}
}

// TestFederationAuthReused: in an authenticated fleet the device's
// bearer token travels with the forward, so one credential works against
// whichever replica the device happens to reach. A bad token dies at the
// first replica.
func TestFederationAuthReused(t *testing.T) {
	a, _ := newFederatedFleet(t, "fleet-secret")
	bDev := deviceOwnedBy(t, a.cluster, "gw-b")

	if code := doFed(t, "POST", a.base+"/v1/sessions", "", jsonBody(t, map[string]string{"id": bDev}), nil); code != 401 {
		t.Fatalf("unauthenticated forwarded open = %d, want 401", code)
	}
	var sess sessionJSON
	if code := doFed(t, "POST", a.base+"/v1/sessions", "fleet-secret", jsonBody(t, map[string]string{"id": bDev}), &sess); code != 201 {
		t.Fatalf("authenticated forwarded open = %d, want 201", code)
	}
	if code := doFed(t, "POST", a.base+"/v1/sessions/"+bDev+"/push", "fleet-secret", jsonBody(t, wireBatch(t, 2)), nil); code != 200 {
		t.Fatalf("authenticated forwarded push = %d, want 200", code)
	}
}

func jsonBody(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFederationDynamicMembershipHandoff is the dynamic-membership
// acceptance proof (run under -race in CI): three full replica servers
// driven by one polled peers file serve a pushing fleet while gw-c
// leaves and gw-d joins mid-traffic. No push is lost (every push
// eventually lands, retried through the documented 404/410/502/503
// answers), every device finishes on its ring-assigned owner and only
// there, the departed replica is empty, and the handoff telemetry
// advanced.
func TestFederationDynamicMembershipHandoff(t *testing.T) {
	names := []string{"gw-a", "gw-b", "gw-c", "gw-d"}
	servers := make(map[string]*httptest.Server, len(names))
	urls := make(map[string]string, len(names))
	for _, n := range names {
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		t.Cleanup(ts.Close)
		servers[n] = ts
		urls[n] = "http://" + ts.Listener.Addr().String()
	}
	path := filepath.Join(t.TempDir(), "peers.conf")
	writePeers := func(members ...string) {
		var b strings.Builder
		for _, m := range members {
			fmt.Fprintf(&b, "%s=%s\n", m, urls[m])
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	// gw-d's server runs from the start, but discovery has not announced
	// it yet: it is a pure forwarder until the membership change.
	writePeers("gw-a", "gw-b", "gw-c")

	gws := make(map[string]*adasense.Gateway, len(names))
	clusters := make(map[string]*adasense.Cluster, len(names))
	for _, n := range names {
		gw, err := adasense.NewGateway(quickSystem(t),
			adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
				return adasense.NewBaselineController()
			})))
		if err != nil {
			t.Fatal(err)
		}
		src, err := membership.NewFileSource(path, membership.WithPollInterval(3*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := adasense.NewClusterWithSource(gw, n, src)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		gws[n], clusters[n] = gw, cluster
		servers[n].Config.Handler = newServer(gw, cluster)
		servers[n].Start()
	}

	waitCluster := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// The fleet: every device enters through a fixed replica (spread
	// over a, b and the doomed c) and pushes in three rounds — before,
	// during, and after the membership change. A push is never given up:
	// transient answers (a handoff landing mid-request) are retried, so
	// "no pushes lost" means every round completes for every device.
	const (
		devices     = 15
		perRound    = 6
		maxAttempts = 200
	)
	entries := []string{servers["gw-a"].URL, servers["gw-b"].URL, servers["gw-c"].URL}
	batch := jsonBody(t, wireBatch(t, 1))
	// Re-opens are best-effort: mid-skew an open can transiently answer
	// 410 (stale-route refusal) or 502/503 like any other request, and
	// the retry loop absorbs it — a push landing (200) is the only
	// progress criterion, so "no pushes lost" is judged on pushes alone.
	openDevice := func(entry, id string) {
		doFed(t, "POST", entry+"/v1/sessions", "", jsonBody(t, map[string]string{"id": id}), nil)
	}
	pushRound := func(entry, id string) error {
		for n := 0; n < perRound; n++ {
			landed := false
			for attempt := 0; attempt < maxAttempts; attempt++ {
				if code := doFed(t, "POST", entry+"/v1/sessions/"+id+"/push", "", batch, nil); code == 200 {
					landed = true
					break
				}
				// 404/410: the session moved under us — reopen wherever
				// the ring now says and retry. 502/503: a peer mid-drain
				// or mid-handoff — just retry.
				openDevice(entry, id)
				time.Sleep(2 * time.Millisecond)
			}
			if !landed {
				return fmt.Errorf("push %d for %s never landed", n, id)
			}
		}
		return nil
	}

	var midpoint, done sync.WaitGroup
	finalRound := make(chan struct{})
	errs := make(chan error, devices)
	for i := 0; i < devices; i++ {
		entry := entries[i%len(entries)]
		id := fmt.Sprintf("dyn-dev-%d", i)
		midpoint.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			openDevice(entry, id)
			err := pushRound(entry, id) // round 1: stable fleet
			midpoint.Done()
			if err == nil {
				err = pushRound(entry, id) // round 2: races the rebalance
			}
			<-finalRound
			if err == nil {
				err = pushRound(entry, id) // round 3: settled fleet
			}
			errs <- err
		}()
	}

	// Mid-traffic: gw-c leaves, gw-d joins. Round 2 pushes race the
	// rebalance on every replica.
	midpoint.Wait()
	writePeers("gw-a", "gw-b", "gw-d")
	waitCluster("every replica to apply the change", func() bool {
		for _, n := range names {
			if clusters[n].Generation() < 2 {
				return false
			}
		}
		return true
	})
	close(finalRound)
	done.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The departed replica drains to empty once its handoffs settle.
	waitCluster("gw-c to empty", func() bool { return gws["gw-c"].NumSessions() == 0 })

	// Every device sits on its ring-assigned owner — and nowhere else.
	ringOf := clusters["gw-a"]
	ownersSeen := map[string]int{}
	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("dyn-dev-%d", i)
		owner, _ := ringOf.Route(id)
		ownersSeen[owner.ID]++
		for _, n := range names {
			_, live := gws[n].Lookup(id)
			if live != (n == owner.ID) {
				t.Errorf("device %s: live on %s = %v, ring owner is %s", id, n, live, owner.ID)
			}
		}
	}
	if ownersSeen["gw-c"] != 0 {
		t.Errorf("ring still assigns %d devices to the departed replica", ownersSeen["gw-c"])
	}
	if live := gws["gw-a"].NumSessions() + gws["gw-b"].NumSessions() + gws["gw-d"].NumSessions(); live != devices {
		t.Errorf("fleet holds %d sessions, want %d", live, devices)
	}

	// The handoff and rebalance telemetry advanced: gw-c handed off
	// everything it held, every replica counted one applied change, and
	// each moved session arrived through the handoff machinery — by
	// state transfer when gw-c's PUT won the race, by cold adoption when
	// the device's own retry got there first.
	var handedOff, arrived uint64
	for _, n := range names {
		s := gws[n].Stats()
		handedOff += s.SessionsHandedOff
		arrived += s.HandoffsStateful + s.HandoffsCold
		if s.Rebalances != 1 {
			t.Errorf("%s Rebalances = %d, want 1", n, s.Rebalances)
		}
	}
	if handedOff == 0 {
		t.Error("adasense_sessions_handed_off_total stayed 0 across the fleet")
	}
	if arrived == 0 {
		t.Error("no moved session was counted as a stateful restore or a cold adoption")
	}
	m := scrapeMetrics(t, servers["gw-a"].URL)
	for _, series := range []string{"adasense_rebalances_total", "adasense_sessions_handed_off_total",
		"adasense_stale_route_total", "adasense_handoffs_stateful_total", "adasense_handoffs_cold_total"} {
		if _, ok := m[series]; !ok {
			t.Errorf("/metrics is missing %s", series)
		}
	}
	if m["adasense_rebalances_total"] != 1 {
		t.Errorf("gw-a adasense_rebalances_total = %v, want 1", m["adasense_rebalances_total"])
	}
}

// TestFederationForwardErrorPaths covers the wire mapping of a failing
// forward: an unreachable owner answers 502 with a body naming the
// peer, while an owner that answers — even with an error — has its
// status relayed verbatim (a drained owner's 503, a missing session's
// 404).
func TestFederationForwardErrorPaths(t *testing.T) {
	a, b := newFederatedFleet(t, "")
	bDev := deviceOwnedBy(t, a.cluster, "gw-b")

	// Owner answering an error: relayed untouched — the 404 of a
	// never-opened session on a GET (only pushes adopt), and the 400 of
	// a malformed batch.
	var missing errorJSON
	if code := doFed(t, "GET", a.base+"/v1/sessions/"+bDev, "", nil, &missing); code != 404 {
		t.Fatalf("forwarded get of unknown session = %d, want the owner's 404", code)
	}
	if missing.Error == "" {
		t.Error("owner's 404 body was not relayed")
	}
	var relayed errorJSON
	if code := doFed(t, "POST", a.base+"/v1/sessions/"+bDev+"/push", "", []byte("{not json"), &relayed); code != 400 {
		t.Fatalf("forwarded malformed push = %d, want the owner's 400", code)
	}
	if relayed.Error == "" {
		t.Error("owner's error body was not relayed")
	}

	// Owner draining: its 503 is relayed, not rewritten.
	if err := b.gw.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := doFed(t, "POST", a.base+"/v1/sessions", "", jsonBody(t, map[string]string{"id": bDev}), nil); code != 503 {
		t.Fatalf("open forwarded to a draining owner = %d, want 503", code)
	}

	// Owner unreachable: the dialed replica answers 502 and names the
	// peer; the forward counts as a peer error.
	b.ts.Close()
	var gone errorJSON
	if code := doFed(t, "GET", a.base+"/v1/sessions/"+bDev, "", nil, &gone); code != 502 {
		t.Fatalf("forward to a dead owner = %d, want 502", code)
	}
	if !strings.Contains(gone.Error, `"gw-b"`) {
		t.Errorf("502 body does not name the dead peer: %q", gone.Error)
	}
	if s := a.gw.Stats(); s.PeerErrors == 0 {
		t.Error("dead-owner forward did not count a peer error")
	}
}

// TestFederationStatefulHandoffColdFallback is the handoff-fidelity
// acceptance proof (run under -race in CI), split from the churn test
// above so each probe's trajectory is deterministic. Stateful half: a
// SPOT device descended mid-trajectory on a gracefully departing
// replica reappears on its ring-assigned new owner with a
// byte-identical ADSS snapshot — configuration, controller counters,
// window remainder and energy ledger all intact, counted on
// adasense_handoffs_stateful_total and never on the cold series.
// Refused half: when the new owner serves another model generation (as
// replicas on skewed builds or models do), it answers the state PUT 409,
// the sender makes exactly one attempt, and the device's next push
// adopts it cold. Cold half: when the old owner dies outright (nothing
// handed off), the device's next push on the survivor adopts it cold at
// the top configuration, counted on adasense_handoffs_cold_total — and
// in every half the device's next push lands.
func TestFederationStatefulHandoffColdFallback(t *testing.T) {
	names := []string{"gw-a", "gw-b", "gw-c", "gw-d"}
	servers := make(map[string]*httptest.Server, len(names))
	urls := make(map[string]string, len(names))
	for _, n := range names {
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		t.Cleanup(ts.Close)
		servers[n] = ts
		urls[n] = "http://" + ts.Listener.Addr().String()
	}
	// Each replica polls its own peers file, so a change can reach the
	// receivers before the sender.
	dir := t.TempDir()
	peersFile := func(replica string) string { return filepath.Join(dir, replica+".conf") }
	writePeersOf := func(replicas []string, members ...string) {
		var b strings.Builder
		for _, m := range members {
			fmt.Fprintf(&b, "%s=%s\n", m, urls[m])
		}
		for _, r := range replicas {
			tmp := peersFile(r) + ".tmp"
			if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(tmp, peersFile(r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	writePeers := func(members ...string) { writePeersOf(names, members...) }
	writePeers(names...)

	// statePuts records the status every replica answered a session-state
	// PUT with, so the refused half can count the sender's attempts.
	var (
		putMu     sync.Mutex
		statePuts []int
	)
	putStatuses := func() []int {
		putMu.Lock()
		defer putMu.Unlock()
		return append([]int(nil), statePuts...)
	}

	gws := make(map[string]*adasense.Gateway, len(names))
	clusters := make(map[string]*adasense.Cluster, len(names))
	for _, n := range names {
		// Zero stability threshold: the probes descend within a few
		// seconds of stable activity, leaving real mid-trajectory FSM
		// state for the handoff to carry.
		gw, err := adasense.NewGateway(quickSystem(t),
			adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
				return adasense.NewSPOT(0)
			})))
		if err != nil {
			t.Fatal(err)
		}
		src, err := membership.NewFileSource(peersFile(n), membership.WithPollInterval(3*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := adasense.NewClusterWithSource(gw, n, src)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		gws[n], clusters[n] = gw, cluster
		srv := newServer(gw, cluster)
		servers[n].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPut || !strings.HasPrefix(r.URL.Path, "/v1/session-state/") {
				srv.ServeHTTP(w, r)
				return
			}
			sw := &statusWriter{ResponseWriter: w}
			srv.ServeHTTP(sw, r)
			putMu.Lock()
			statePuts = append(statePuts, sw.status)
			putMu.Unlock()
		})
		servers[n].Start()
	}
	waitCond := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	top := adasense.ParetoStates()[0]
	// openAndDescend opens the device through gw-a's front door (the ring
	// forwards to its owner), then drives stable walking traffic in
	// process — sampled at whatever configuration the session currently
	// directs — until the SPOT steps off the top state.
	openAndDescend := func(owner, id string, seed uint64) *adasense.GatewaySession {
		t.Helper()
		if code := doFed(t, "POST", servers["gw-a"].URL+"/v1/sessions", "", jsonBody(t, map[string]string{"id": id}), nil); code != 200 && code != 201 {
			t.Fatalf("opening %s = %d", id, code)
		}
		sess, ok := gws[owner].Lookup(id)
		if !ok {
			t.Fatalf("%s did not land on its owner %s", id, owner)
		}
		sched, err := adasense.NewSchedule([]adasense.Segment{{Activity: adasense.Walk, Duration: 120}})
		if err != nil {
			t.Fatal(err)
		}
		m := adasense.NewMotion(sched, seed)
		sampler := adasense.NewSampler(adasense.DefaultNoiseModel(), seed+1)
		clock := 0.0
		for sess.Config() == top && clock < 60 {
			b := sampler.Sample(m, sess.Config(), clock, clock+1)
			if _, err := sess.Push(b); err != nil {
				t.Fatal(err)
			}
			clock++
		}
		if sess.Config() == top {
			t.Fatalf("probe %s never descended", id)
		}
		return sess
	}
	encode := func(st *adasense.SessionState) []byte {
		t.Helper()
		raw, err := st.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	// --- Stateful half: gw-c leaves gracefully. ---
	statefulID := deviceOwnedBy(t, clusters["gw-a"], "gw-c")
	donor := openAndDescend("gw-c", statefulID, 101)
	before, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	beforeBytes := encode(before)
	cfgBefore := donor.Config()

	writePeers("gw-a", "gw-b", "gw-d")
	waitCond("every replica to apply the change", func() bool {
		for _, n := range names {
			if clusters[n].Generation() < 2 {
				return false
			}
		}
		return true
	})
	waitCond("gw-c to drain", func() bool { return gws["gw-c"].NumSessions() == 0 })
	owner, _ := clusters["gw-a"].Route(statefulID)
	if owner.ID == "gw-c" {
		t.Fatalf("ring still assigns %s to the departed replica", statefulID)
	}
	// The state PUT is asynchronous; wait for it to land on the new owner.
	var moved *adasense.GatewaySession
	waitCond("the state transfer to land on "+owner.ID, func() bool {
		s, ok := gws[owner.ID].Lookup(statefulID)
		if ok {
			moved = s
		}
		return ok
	})
	if got := moved.Config(); got != cfgBefore {
		t.Fatalf("handed-off probe serves at %s, had descended to %s", got.Name(), cfgBefore.Name())
	}
	after, err := moved.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(after), beforeBytes) {
		t.Fatalf("handoff was lossy:\nbefore: %+v\nafter:  %+v", before, after)
	}
	fleet := func(counter func(adasense.ServingStats) uint64) (sum uint64) {
		for _, n := range names {
			sum += counter(gws[n].Stats())
		}
		return sum
	}
	statefulOf := func(s adasense.ServingStats) uint64 { return s.HandoffsStateful }
	coldOf := func(s adasense.ServingStats) uint64 { return s.HandoffsCold }
	if stateful := fleet(statefulOf); stateful != 1 {
		t.Errorf("fleet HandoffsStateful = %d after one graceful departure, want 1", stateful)
	}
	if cold := fleet(coldOf); cold != 0 {
		t.Errorf("fleet HandoffsCold = %d, the stateful path needed no fallback", cold)
	}
	// The device's next push lands on the moved session.
	if _, err := moved.Push(adasense.NewSampler(adasense.DefaultNoiseModel(), 103).
		Sample(adasense.NewMotion(mustWalkSchedule(t), 102), moved.Config(), 60, 61)); err != nil {
		t.Fatalf("post-handoff push failed: %v", err)
	}

	// --- Refused half: gw-d leaves gracefully, but the survivors serve
	// another model generation, so its snapshot is refused. ---
	refusedID := deviceOwnedBy(t, clusters["gw-a"], "gw-d")
	openAndDescend("gw-d", refusedID, 151)
	for _, n := range []string{"gw-a", "gw-b"} {
		// A local swap, not a fleet push: gw-d keeps generation 1.
		if err := gws[n].SwapModel(quickSystem(t)); err != nil {
			t.Fatal(err)
		}
	}
	putsBefore := len(putStatuses())
	senderErrs := gws["gw-d"].Stats().PeerErrors
	statefulBefore, coldBefore := fleet(statefulOf), fleet(coldOf)
	// The receivers apply the change first, so the one PUT meets a ring
	// that already names its receiver as owner (a lagging ring answers
	// 503, which is retried).
	writePeersOf([]string{"gw-a", "gw-b"}, "gw-a", "gw-b")
	waitCond("gw-a and gw-b to apply the change", func() bool {
		return clusters["gw-a"].Generation() >= 3 && clusters["gw-b"].Generation() >= 3
	})
	writePeersOf([]string{"gw-d"}, "gw-a", "gw-b")
	waitCond("gw-d to drain", func() bool { return gws["gw-d"].NumSessions() == 0 })
	waitCond("the refused state transfer", func() bool { return gws["gw-d"].Stats().PeerErrors > senderErrs })
	// A retry would follow 250 ms after the refusal; wait past it.
	time.Sleep(400 * time.Millisecond)
	if puts := putStatuses()[putsBefore:]; len(puts) != 1 || puts[0] != http.StatusConflict {
		t.Fatalf("state PUTs after the refused handoff answered %v, want exactly one 409", puts)
	}
	if got := gws["gw-d"].Stats().PeerErrors - senderErrs; got != 1 {
		t.Errorf("sender counted %d failed attempts, want 1", got)
	}
	if got := fleet(statefulOf); got != statefulBefore {
		t.Errorf("fleet HandoffsStateful moved %d -> %d on a refused snapshot", statefulBefore, got)
	}
	refusedBatch := jsonBody(t, wireBatch(t, 1))
	if code := doFed(t, "POST", servers["gw-a"].URL+"/v1/sessions/"+refusedID+"/push", "", refusedBatch, nil); code != 200 {
		t.Fatalf("push after the refused handoff = %d, want 200", code)
	}
	refusedOwner, _ := clusters["gw-a"].Route(refusedID)
	readopted, ok := gws[refusedOwner.ID].Lookup(refusedID)
	if !ok {
		t.Fatalf("new owner %s does not hold %s after its push", refusedOwner.ID, refusedID)
	}
	if readopted.Config() != top {
		t.Errorf("refused snapshot still moved state: %s", readopted.Config().Name())
	}
	if got := fleet(coldOf) - coldBefore; got != 1 {
		t.Errorf("fleet HandoffsCold rose by %d after the refused handoff, want 1", got)
	}

	// --- Cold half: gw-b dies without handing anything off. ---
	coldID := deviceOwnedBy(t, clusters["gw-a"], "gw-b")
	openAndDescend("gw-b", coldID, 201)
	statefulBefore = gws["gw-a"].Stats().HandoffsStateful
	coldBefore = gws["gw-a"].Stats().HandoffsCold
	clusters["gw-b"].Close()
	servers["gw-b"].Close()
	writePeers("gw-a")
	waitCond("gw-a to apply the final change", func() bool { return clusters["gw-a"].Generation() >= 4 })

	// The dead owner sent nothing, so the device's own reconnect is what
	// revives it: the first push on the survivor adopts the session cold.
	batch := jsonBody(t, wireBatch(t, 1))
	landed := false
	for attempt := 0; attempt < 200 && !landed; attempt++ {
		if code := doFed(t, "POST", servers["gw-a"].URL+"/v1/sessions/"+coldID+"/push", "", batch, nil); code == 200 {
			landed = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !landed {
		t.Fatal("cold-fallback push never landed on the survivor")
	}
	adopted, ok := gws["gw-a"].Lookup(coldID)
	if !ok {
		t.Fatal("survivor serves pushes for a session it does not hold")
	}
	if adopted.Config() != top {
		t.Errorf("cold adoption kept state it could not have received: %s", adopted.Config().Name())
	}
	if cold := gws["gw-a"].Stats().HandoffsCold - coldBefore; cold != 1 {
		t.Errorf("gw-a HandoffsCold rose by %d after the fallback, want 1", cold)
	}
	if got := gws["gw-a"].Stats().HandoffsStateful; got != statefulBefore {
		t.Errorf("gw-a HandoffsStateful moved %d -> %d with no live peer to send state", statefulBefore, got)
	}

	m := scrapeMetrics(t, servers["gw-a"].URL)
	for _, series := range []string{"adasense_handoffs_stateful_total", "adasense_handoffs_cold_total"} {
		if _, ok := m[series]; !ok {
			t.Errorf("/metrics is missing %s", series)
		}
	}
	if m["adasense_handoffs_cold_total"] < 1 {
		t.Errorf("gw-a adasense_handoffs_cold_total = %v, want >= 1", m["adasense_handoffs_cold_total"])
	}
}

// TestStatePutFromOwnerIsRetryable pins the receiving side of a handoff
// that outran the receiver's membership view: a state PUT for a device
// this replica's ring still places on the sender is answered 503, which
// the sender's delivery path retries, not 410, which it would not — and
// it is not counted as a stale route.
func TestStatePutFromOwnerIsRetryable(t *testing.T) {
	a, b := newFederatedFleet(t, "")
	id := deviceOwnedBy(t, a.cluster, "gw-b")
	req, err := http.NewRequest(http.MethodPut, a.base+"/v1/session-state/"+id, bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(adasense.ReplicatedHeader, b.id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("state PUT from the device's owner = %d, want 503", resp.StatusCode)
	}
	if got := a.gw.Stats().StaleRoutes; got != 0 {
		t.Fatalf("stale routes = %d, a lagging receiver is not a stale sender", got)
	}
}

// mustWalkSchedule is the probes' steady walking schedule.
func mustWalkSchedule(t *testing.T) *adasense.Schedule {
	t.Helper()
	sched, err := adasense.NewSchedule([]adasense.Segment{{Activity: adasense.Walk, Duration: 120}})
	if err != nil {
		t.Fatal(err)
	}
	return sched
}
