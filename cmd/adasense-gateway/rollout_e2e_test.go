package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adasense"
	"adasense/internal/membership"
	"adasense/internal/nn"
	"adasense/internal/rng"
	"adasense/internal/rollout"
)

// fastRollout is a rollout policy scaled for tests: real gates, but
// windows judged after milliseconds and a handful of classifications.
func fastRollout(minSamples int) adasense.RolloutConfig {
	cfg := adasense.DefaultRolloutConfig()
	cfg.Window = 5 * time.Millisecond
	cfg.MinSamples = minSamples
	return cfg
}

// candidateBytes serializes sys into a model container.
func candidateBytes(t *testing.T, sys *adasense.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// degradedSystem builds an untrained classifier over the real feature
// dimensions: it loads and serves fine, but classifies at chance
// confidence (~1/NumActivities), which trips the rollout's confidence
// gate against any trained incumbent.
func degradedSystem(t testing.TB) *adasense.System {
	t.Helper()
	return &adasense.System{Network: nn.New(15, 4, adasense.NumActivities, rng.New(1))}
}

// newRolloutFleet is newFederatedFleet with the rollout policy under
// test installed on both replicas' servers.
func newRolloutFleet(t *testing.T, cfg adasense.RolloutConfig) (*fedReplica, *fedReplica) {
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
		gw, err := adasense.NewGateway(quickSystem(t),
			adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
				return adasense.NewBaselineController()
			})))
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := adasense.NewCluster(gw, self, replicas)
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(gw, cluster)
		srv.rolloutCfg = cfg
		ts.Config.Handler = srv
		ts.Start()
		return &fedReplica{id: self, base: ts.URL, gw: gw, cluster: cluster, ts: ts}
	}
	return build("gw-a", tsA), build("gw-b", tsB)
}

// cohortDeviceOwnedBy finds a device the ring places on owner whose
// rollout cohort membership at the given fraction matches in.
func cohortDeviceOwnedBy(t *testing.T, c *adasense.Cluster, owner string, cand uint64, frac float64, in bool) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("ro-dev-%d", i)
		if rep, _ := c.Route(id); rep.ID != owner {
			continue
		}
		if rollout.InCohort(id, cand, frac) == in {
			return id
		}
	}
	t.Fatalf("no device on %s with InCohort(%.2f)=%v in 100000 tries", owner, frac, in)
	return ""
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRolloutFleetAutoPromote is the promote acceptance scenario (run
// under -race in CI): a two-replica fleet stages a healthy candidate
// through 5% → 25% → 100%. Only cohort devices serve from the canary —
// an incumbent-pinned device keeps its exact engine mid-stage — every
// stage auto-promotes on live traffic health, completion publishes the
// canary as the fleet's model on both replicas, and the promote
// telemetry lands in /metrics.
func TestRolloutFleetAutoPromote(t *testing.T) {
	// The canary session is opened fresh at rollout start, so its first
	// window still carries a (higher-confidence) warm-up transient; a
	// wider lag gate keeps the tiny 3-sample test windows off that edge
	// while still judging real health.
	cfg := fastRollout(3)
	cfg.ConfidenceTolerance = 0.15
	a, b := newRolloutFleet(t, cfg)
	candidate := candidateBytes(t, quickSystem(t))
	cand := adasense.CandidateHash(candidate)

	// Both arms get traffic from replica A's own devices, so A is the
	// only replica whose windows qualify: A decides, B follows the
	// replicated transitions.
	canaryDev := cohortDeviceOwnedBy(t, a.cluster, "gw-a", cand, 0.05, true)
	incDev := cohortDeviceOwnedBy(t, a.cluster, "gw-a", cand, 0.25, false)
	batch := jsonBody(t, wireBatch(t, 2))
	for _, dev := range []string{canaryDev, incDev} {
		if code := doFed(t, "POST", a.base+"/v1/sessions", "", jsonBody(t, map[string]string{"id": dev}), nil); code != 201 {
			t.Fatalf("open %s = %d", dev, code)
		}
		// Warm both sessions past their first-window transient so the
		// tiny test windows compare steady-state confidences.
		for i := 0; i < 6; i++ {
			if code := doFed(t, "POST", a.base+"/v1/sessions/"+dev+"/push", "", batch, nil); code != 200 {
				t.Fatalf("warmup push %s = %d", dev, code)
			}
		}
	}
	sessCanary, _ := a.gw.Lookup(canaryDev)
	sessInc, _ := a.gw.Lookup(incDev)
	svcBefore := sessInc.Service()

	var started adasense.RolloutStatus
	var report struct {
		Rollout  adasense.RolloutStatus `json:"rollout"`
		Replicas []swapReplicaJSON      `json:"replicas"`
	}
	if code := doFed(t, "POST", a.base+"/v1/rollout", "", candidate, &report); code != 201 {
		t.Fatalf("rollout start = %d", code)
	}
	started = report.Rollout
	if started.State != "observing" || started.Stage != 0 || started.Fraction != 0.05 {
		t.Fatalf("started rollout = %+v", started)
	}
	if len(report.Replicas) != 2 {
		t.Fatalf("start replicated to %d replicas, want 2: %+v", len(report.Replicas), report.Replicas)
	}
	if !b.gw.RolloutActive() {
		t.Fatal("replica B did not start the replicated rollout")
	}

	// Mid-stage split: the cohort device moved to the canary engine, the
	// incumbent device kept its exact pre-rollout engine.
	if sessCanary.Service() == svcBefore {
		t.Fatal("cohort device was not repinned onto the canary")
	}
	if sessInc.Service() != svcBefore {
		t.Fatal("incumbent-pinned device lost its engine mid-stage")
	}

	// Drive both arms until the stage machine completes. Every push
	// evaluates the machine inline; the same walking batch on the same
	// weights keeps every gate delta near zero.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := a.gw.RolloutStatus()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "completed" {
			break
		}
		if st.State == "rolled_back" {
			t.Fatalf("healthy candidate rolled back: %+v", st.Decisions)
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollout never completed; status %+v", st)
		}
		for _, dev := range []string{canaryDev, incDev} {
			if code := doFed(t, "POST", a.base+"/v1/sessions/"+dev+"/push", "", batch, nil); code != 200 {
				t.Fatalf("push %s = %d", dev, code)
			}
		}
	}

	// Completion promoted the canary to incumbent fleet-wide: replicated
	// transitions settle B, the model generation advanced on both
	// replicas, and both sessions serve from the promoted engine.
	waitFor(t, "replica B to settle", 10*time.Second, func() bool { return !b.gw.RolloutActive() })
	stB, err := b.gw.RolloutStatus()
	if err != nil || stB.State != "completed" {
		t.Fatalf("B settled state = %+v, %v", stB, err)
	}
	if ga, gb := a.gw.ModelGeneration(), b.gw.ModelGeneration(); ga != 2 || gb != 2 {
		t.Fatalf("model generations = %d / %d, want 2 / 2", ga, gb)
	}
	if sessInc.Service() == svcBefore || sessInc.Service() != sessCanary.Service() {
		t.Fatal("sessions not converged on the promoted engine")
	}
	st, err := a.gw.RolloutStatus()
	if err != nil {
		t.Fatal(err)
	}
	promotes := 0
	for _, d := range st.Decisions {
		if d.Action == "promote" {
			promotes++
		}
	}
	if promotes != 2 || st.Decisions[len(st.Decisions)-1].Action != "complete" {
		t.Fatalf("decision log = %+v, want 2 promotes then complete", st.Decisions)
	}

	mA, mB := scrapeMetrics(t, a.base), scrapeMetrics(t, b.base)
	if mA["adasense_rollouts_promoted_total"] != 1 || mB["adasense_rollouts_promoted_total"] != 1 {
		t.Errorf("promoted_total = %v / %v, want 1 / 1",
			mA["adasense_rollouts_promoted_total"], mB["adasense_rollouts_promoted_total"])
	}
	if mA["adasense_rollout_canary_classifies_total"] == 0 {
		t.Error("canary classifies were not counted")
	}
	if mA["adasense_rollout_stage"] != -1 || mA["adasense_model_generation"] != 2 {
		t.Errorf("settled gauges = stage %v gen %v, want -1 / 2",
			mA["adasense_rollout_stage"], mA["adasense_model_generation"])
	}
}

// TestRolloutFleetAutoRollback is the rollback acceptance scenario: a
// candidate classifying at chance trips the confidence gate on live
// traffic, the fleet rolls back automatically, zero devices are left on
// the canary, the candidate hash is frozen against restarts, and the
// rollback telemetry lands in /metrics.
func TestRolloutFleetAutoRollback(t *testing.T) {
	a, b := newRolloutFleet(t, fastRollout(3))
	candidate := candidateBytes(t, degradedSystem(t))
	cand := adasense.CandidateHash(candidate)

	canaryDev := cohortDeviceOwnedBy(t, a.cluster, "gw-a", cand, 0.05, true)
	incDev := cohortDeviceOwnedBy(t, a.cluster, "gw-a", cand, 0.25, false)
	for _, dev := range []string{canaryDev, incDev} {
		if code := doFed(t, "POST", a.base+"/v1/sessions", "", jsonBody(t, map[string]string{"id": dev}), nil); code != 201 {
			t.Fatalf("open %s = %d", dev, code)
		}
	}
	sessCanary, _ := a.gw.Lookup(canaryDev)
	sessInc, _ := a.gw.Lookup(incDev)
	svcBefore := sessInc.Service()

	if code := doFed(t, "POST", a.base+"/v1/rollout", "", candidate, nil); code != 201 {
		t.Fatalf("rollout start = %d", code)
	}

	batch := jsonBody(t, wireBatch(t, 2))
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := a.gw.RolloutStatus()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "rolled_back" {
			if !strings.Contains(st.Decisions[len(st.Decisions)-1].Reason, "confidence gate") {
				t.Fatalf("rollback reason = %+v, want the confidence gate", st.Decisions)
			}
			break
		}
		if st.State == "completed" {
			t.Fatal("chance-level candidate was promoted")
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollout never rolled back; status %+v", st)
		}
		for _, dev := range []string{canaryDev, incDev} {
			if code := doFed(t, "POST", a.base+"/v1/sessions/"+dev+"/push", "", batch, nil); code != 200 {
				t.Fatalf("push %s = %d", dev, code)
			}
		}
	}

	// Zero devices on the canary: the cohort device is back on the exact
	// incumbent engine, the incumbent never moved, the model generation
	// never advanced, and B followed the replicated rollback.
	waitFor(t, "replica B to settle", 10*time.Second, func() bool { return !b.gw.RolloutActive() })
	if sessCanary.Service() != svcBefore || sessInc.Service() != svcBefore {
		t.Fatal("a device is still pinned off the incumbent after rollback")
	}
	if ga, gb := a.gw.ModelGeneration(), b.gw.ModelGeneration(); ga != 1 || gb != 1 {
		t.Fatalf("model generations = %d / %d, want 1 / 1", ga, gb)
	}
	stB, err := b.gw.RolloutStatus()
	if err != nil || stB.State != "rolled_back" {
		t.Fatalf("B settled state = %+v, %v", stB, err)
	}

	// The failed hash is frozen: restarting the same candidate answers
	// 423 on both the origin and (replicated start) the peer.
	var locked errorJSON
	if code := doFed(t, "POST", a.base+"/v1/rollout", "", candidate, &locked); code != http.StatusLocked {
		t.Fatalf("restart of rolled-back candidate = %d, want 423", code)
	}
	if !strings.Contains(locked.Error, "frozen") {
		t.Errorf("423 body = %q, want the freeze named", locked.Error)
	}

	mA, mB := scrapeMetrics(t, a.base), scrapeMetrics(t, b.base)
	if mA["adasense_rollouts_rolled_back_total"] != 1 || mB["adasense_rollouts_rolled_back_total"] != 1 {
		t.Errorf("rolled_back_total = %v / %v, want 1 / 1",
			mA["adasense_rollouts_rolled_back_total"], mB["adasense_rollouts_rolled_back_total"])
	}
}

// TestRolloutSurvivesRebalance runs a rollout across a polled-membership
// fleet while a replica leaves mid-stage (run under -race in CI): cohort
// membership is a pure function of device id and candidate hash, so a
// handed-off cohort device lands on the canary at its new owner too, and
// the (degraded) canary still rolls back cleanly on the remaining
// replicas with every device back on the incumbent.
func TestRolloutSurvivesRebalance(t *testing.T) {
	names := []string{"gw-a", "gw-b", "gw-c"}
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
	writePeers(names...)

	// A high sample floor keeps the health verdict pending until the
	// handoff assertions are done; the flood at the end trips it.
	rolloutCfg := fastRollout(60)
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
		srv := newServer(gw, cluster)
		srv.rolloutCfg = rolloutCfg
		servers[n].Config.Handler = srv
		servers[n].Start()
	}
	entryA := servers["gw-a"].URL

	candidate := candidateBytes(t, degradedSystem(t))
	cand := adasense.CandidateHash(candidate)
	// The devices under test live on the replica that will leave.
	cohortDev := cohortDeviceOwnedBy(t, clusters["gw-a"], "gw-c", cand, 0.05, true)
	incDev := cohortDeviceOwnedBy(t, clusters["gw-a"], "gw-c", cand, 0.25, false)
	for _, dev := range []string{cohortDev, incDev} {
		if code := doFed(t, "POST", entryA+"/v1/sessions", "", jsonBody(t, map[string]string{"id": dev}), nil); code != 201 {
			t.Fatalf("open %s = %d", dev, code)
		}
	}

	if code := doFed(t, "POST", entryA+"/v1/rollout", "", candidate, nil); code != 201 {
		t.Fatalf("rollout start = %d", code)
	}
	for _, n := range names {
		if !gws[n].RolloutActive() {
			t.Fatalf("%s did not start the replicated rollout", n)
		}
	}
	sessCohort, _ := gws["gw-c"].Lookup(cohortDev)
	sessInc, _ := gws["gw-c"].Lookup(incDev)
	if sessCohort.Service() == sessInc.Service() {
		t.Fatal("cohort device not on the canary before the rebalance")
	}

	// gw-c leaves mid-rollout. Its sessions hand off; the devices are
	// re-opened wherever the ring now says (push-style retry absorbs the
	// transient answers of a fleet mid-skew).
	writePeers("gw-a", "gw-b")
	waitFor(t, "remaining replicas to apply the change", 10*time.Second, func() bool {
		return clusters["gw-a"].Generation() >= 2 && clusters["gw-b"].Generation() >= 2
	})
	waitFor(t, "gw-c to empty", 10*time.Second, func() bool { return gws["gw-c"].NumSessions() == 0 })
	reopen := func(dev string) *adasense.GatewaySession {
		var sess *adasense.GatewaySession
		waitFor(t, "reopen of "+dev, 10*time.Second, func() bool {
			doFed(t, "POST", entryA+"/v1/sessions", "", jsonBody(t, map[string]string{"id": dev}), nil)
			owner, _ := clusters["gw-a"].Route(dev)
			s, ok := gws[owner.ID].Lookup(dev)
			sess = s
			return ok
		})
		return sess
	}
	sessCohort = reopen(cohortDev)

	// Cohort membership survived the handoff: on its new owner the
	// cohort device is pinned to that replica's canary while a
	// non-cohort device co-owned there serves from its incumbent.
	// (Service pointers are only comparable within one gateway, so the
	// incumbent witness must live on the same replica.)
	decider, _ := clusters["gw-a"].Route(cohortDev)
	coIncDev := cohortDeviceOwnedBy(t, clusters["gw-a"], decider.ID, cand, 0.25, false)
	if code := doFed(t, "POST", entryA+"/v1/sessions", "", jsonBody(t, map[string]string{"id": coIncDev}), nil); code != 201 {
		t.Fatalf("open %s = %d", coIncDev, code)
	}
	sessCoInc, ok := gws[decider.ID].Lookup(coIncDev)
	if !ok {
		t.Fatalf("%s missing from its owner %s", coIncDev, decider.ID)
	}
	if sessCohort.Service() == sessCoInc.Service() {
		t.Fatal("cohort device lost its canary pin across the handoff")
	}

	// Flood both arms until the degraded canary trips the confidence
	// gate. A verdict needs both arms' windows qualified on one replica,
	// so the incumbent traffic comes from the co-owned witness; the
	// rollback must then settle every remaining replica with zero
	// devices on the canary.
	batch := jsonBody(t, wireBatch(t, 2))
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := gws[decider.ID].RolloutStatus()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "rolled_back" {
			break
		}
		if st.State == "completed" {
			t.Fatal("chance-level candidate was promoted")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no rollback mid-churn; status %+v", st)
		}
		for _, dev := range []string{cohortDev, coIncDev} {
			doFed(t, "POST", entryA+"/v1/sessions/"+dev+"/push", "", batch, nil)
		}
	}
	waitFor(t, "the fleet to settle", 10*time.Second, func() bool {
		return !gws["gw-a"].RolloutActive() && !gws["gw-b"].RolloutActive()
	})
	if sessCohort.Service() != sessCoInc.Service() {
		t.Fatal("a device is still pinned to the canary after the mid-churn rollback")
	}
	for _, n := range []string{"gw-a", "gw-b"} {
		if st, err := gws[n].RolloutStatus(); err != nil || st.State != "rolled_back" {
			t.Errorf("%s settled state = %+v, %v", n, st, err)
		}
	}
}

// TestRolloutBlocksSwapAndAborts: the regression contract of satellite
// work — a direct model swap during an active rollout is refused with
// ErrRolloutActive / 409 on the wire, an operator DELETE aborts without
// freezing, and swaps work again after settling.
func TestRolloutBlocksSwapAndAborts(t *testing.T) {
	gw, err := adasense.NewGateway(quickSystem(t),
		adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
			return adasense.NewBaselineController()
		})))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(gw, nil)
	// A sample floor no test traffic reaches: the rollout stays active
	// until the operator abort.
	srv.rolloutCfg = fastRollout(1 << 20)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if code := doFed(t, "GET", ts.URL+"/v1/rollout", "", nil, nil); code != 404 {
		t.Fatalf("status before any rollout = %d, want 404", code)
	}

	model := candidateBytes(t, quickSystem(t))
	if code := doFed(t, "POST", ts.URL+"/v1/rollout", "", model, nil); code != 201 {
		t.Fatalf("rollout start = %d", code)
	}

	// Wire: 409. Direct API: ErrRolloutActive.
	var conflict errorJSON
	if code := doFed(t, "POST", ts.URL+"/v1/model", "", model, &conflict); code != http.StatusConflict {
		t.Fatalf("swap during rollout = %d, want 409", code)
	}
	if !strings.Contains(conflict.Error, "rollout") {
		t.Errorf("409 body = %q, want the rollout named", conflict.Error)
	}
	if err := gw.SwapModel(quickSystem(t)); !errors.Is(err, adasense.ErrRolloutActive) {
		t.Fatalf("SwapModel during rollout = %v, want ErrRolloutActive", err)
	}

	var aborted adasense.RolloutStatus
	if code := doFed(t, "DELETE", ts.URL+"/v1/rollout", "", nil, &aborted); code != 200 {
		t.Fatalf("abort = %d", code)
	}
	if aborted.State != "rolled_back" || aborted.Decisions[len(aborted.Decisions)-1].Action != "abort" {
		t.Fatalf("aborted status = %+v", aborted)
	}
	if code := doFed(t, "DELETE", ts.URL+"/v1/rollout", "", nil, nil); code != 404 {
		t.Fatalf("second abort = %d, want 404", code)
	}

	// An operator abort does not freeze: the same candidate restarts,
	// and a swap after settling works again.
	if code := doFed(t, "POST", ts.URL+"/v1/rollout", "", model, nil); code != 201 {
		t.Fatalf("restart after abort = %d, want 201", code)
	}
	if _, err := gw.AbortRollout("test cleanup"); err != nil {
		t.Fatal(err)
	}
	if err := gw.SwapModel(quickSystem(t)); err != nil {
		t.Fatalf("swap after settling = %v", err)
	}
	if gw.ModelGeneration() != 2 {
		t.Fatalf("generation after swap = %d, want 2", gw.ModelGeneration())
	}
}

// TestRolloutStageRouteIsPeerOnly: the stage-transition route only
// accepts replication from a known peer — a client (or a standalone
// gateway) cannot drive the stage machine directly.
func TestRolloutStageRouteIsPeerOnly(t *testing.T) {
	a, _ := newRolloutFleet(t, fastRollout(1<<20))
	tr := jsonBody(t, adasense.RolloutTransition{Action: "promote", ToStage: 1})
	if code := doFed(t, "POST", a.base+"/v1/rollout/stage", "", tr, nil); code != http.StatusForbidden {
		t.Fatalf("client stage transition = %d, want 403", code)
	}
	ts, _ := newTestServer(t)
	if code := doFed(t, "POST", ts.URL+"/v1/rollout/stage", "", tr, nil); code != http.StatusForbidden {
		t.Fatalf("standalone stage transition = %d, want 403", code)
	}
}

// TestModelCatchup: a replica that missed a model push converges on its
// own. Replica A swaps locally (generation 2); the next forwarded
// request advertises the generation, B pulls GET /v1/model from A and
// installs it at A's generation, counting the catch-up.
func TestModelCatchup(t *testing.T) {
	a, b := newRolloutFleet(t, fastRollout(3))

	// GET /v1/model serves the current container with its generation.
	req, err := http.NewRequest("GET", a.base+"/v1/model", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get(adasense.ModelGenHeader) != "1" {
		t.Fatalf("GET /v1/model = %d gen %q, want 200 gen 1", resp.StatusCode, resp.Header.Get(adasense.ModelGenHeader))
	}
	if _, err := adasense.LoadSystem(bytes.NewReader(raw.Bytes())); err != nil {
		t.Fatalf("served container does not load: %v", err)
	}

	// A swaps locally only — B is now one generation behind.
	if err := a.gw.SwapModel(quickSystem(t)); err != nil {
		t.Fatal(err)
	}
	if a.gw.ModelGeneration() != 2 || b.gw.ModelGeneration() != 1 {
		t.Fatalf("generations = %d / %d, want 2 / 1", a.gw.ModelGeneration(), b.gw.ModelGeneration())
	}

	// Any forwarded request from A advertises generation 2; observing it
	// makes B pull and install in the background.
	bDev := deviceOwnedBy(t, a.cluster, "gw-b")
	if code := doFed(t, "POST", a.base+"/v1/sessions", "", jsonBody(t, map[string]string{"id": bDev}), nil); code != 201 {
		t.Fatalf("forwarded open = %d", code)
	}
	waitFor(t, "replica B to catch up", 10*time.Second, func() bool {
		return b.gw.ModelGeneration() == 2
	})
	if got := b.gw.Stats().ModelCatchups; got != 1 {
		t.Errorf("B ModelCatchups = %d, want 1", got)
	}
	if m := scrapeMetrics(t, b.base); m["adasense_model_catchups_total"] != 1 {
		t.Errorf("B adasense_model_catchups_total = %v, want 1", m["adasense_model_catchups_total"])
	}
}
