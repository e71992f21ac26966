package adasense_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"adasense"
)

// altSystem trains a second, deliberately small system so hot-swap tests
// can tell "old model" from "new model" by service identity.
var (
	altOnce sync.Once
	altSys  *adasense.System
	altErr  error
)

func altSystem(t *testing.T) *adasense.System {
	t.Helper()
	altOnce.Do(func() {
		altSys, _, altErr = adasense.TrainSystem(adasense.TrainingConfig{
			Windows: 600, Epochs: 10, Seed: 99,
		})
	})
	if altErr != nil {
		t.Fatal(altErr)
	}
	return altSys
}

// baselineFleet pins every session at the top configuration, so one
// pre-sampled batch stays valid for the whole test no matter how many
// pushes or migrations happen.
func baselineFleet() adasense.GatewayOption {
	return adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
		return adasense.NewBaselineController()
	}))
}

func testGateway(t *testing.T, opts ...adasense.GatewayOption) *adasense.Gateway {
	t.Helper()
	sys, _ := trainedSystem(t)
	gw, err := adasense.NewGateway(sys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

// gatewayBatch samples one second of walking at the top configuration.
func gatewayBatch(t *testing.T) *adasense.Batch {
	t.Helper()
	m := adasense.NewMotion(mustSchedule(t, adasense.Segment{Activity: adasense.Walk, Duration: 30}), 21)
	return adasense.NewSampler(adasense.DefaultNoiseModel(), 22).
		Sample(m, adasense.ParetoStates()[0], 0, 1)
}

func TestNewGatewayValidation(t *testing.T) {
	sys, _ := trainedSystem(t)
	if _, err := adasense.NewGateway(nil); err == nil {
		t.Fatal("nil system accepted")
	}
	if _, err := adasense.NewGateway(sys, adasense.WithMaxSessions(-1)); err == nil {
		t.Fatal("negative session cap accepted")
	}
	if _, err := adasense.NewGateway(sys, adasense.WithIdleTTL(-time.Second)); err == nil {
		t.Fatal("negative TTL accepted")
	}
	if _, err := adasense.NewGateway(sys, adasense.WithGatewayClock(nil)); err == nil {
		t.Fatal("nil clock accepted")
	}
	// Service options propagate — an invalid one fails gateway construction.
	if _, err := adasense.NewGateway(sys, adasense.WithServiceOptions(adasense.WithControllerFactory(nil))); err == nil {
		t.Fatal("invalid service option accepted")
	}
}

func TestGatewaySessionLifecycle(t *testing.T) {
	gw := testGateway(t, baselineFleet(), adasense.WithMaxSessions(2))

	if _, err := gw.Open(""); err == nil {
		t.Fatal("empty id accepted")
	}
	a, err := gw.Open("dev-a")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != "dev-a" {
		t.Fatalf("ID = %q", a.ID())
	}
	if got, ok := gw.Lookup("dev-a"); !ok || got != a {
		t.Fatal("Lookup did not find the open session")
	}
	if _, err := gw.Open("dev-a"); !errors.Is(err, adasense.ErrSessionExists) {
		t.Fatalf("duplicate Open = %v, want ErrSessionExists", err)
	}
	if _, err := gw.Open("dev-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Open("dev-c"); !errors.Is(err, adasense.ErrGatewayFull) {
		t.Fatalf("over-capacity Open = %v, want ErrGatewayFull", err)
	}
	if gw.NumSessions() != 2 {
		t.Fatalf("NumSessions = %d, want 2", gw.NumSessions())
	}

	// Push works through the gateway session and counts telemetry.
	b := gatewayBatch(t)
	events, err := a.Push(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("1 s push produced no event")
	}

	// Close: idempotent, rejects Push, frees the id and the capacity slot.
	a.Close()
	a.Close()
	if _, err := a.Push(b); !errors.Is(err, adasense.ErrSessionClosed) {
		t.Fatalf("Push after Close = %v, want ErrSessionClosed", err)
	}
	if _, ok := gw.Lookup("dev-a"); ok {
		t.Fatal("closed session still registered")
	}
	if _, err := gw.Open("dev-c"); err != nil {
		t.Fatalf("Open after Close = %v, capacity slot leaked", err)
	}
	if err := gw.CloseSession("dev-b"); err != nil {
		t.Fatal(err)
	}
	if err := gw.CloseSession("dev-b"); !errors.Is(err, adasense.ErrSessionNotFound) {
		t.Fatalf("double CloseSession = %v, want ErrSessionNotFound", err)
	}

	s := gw.Stats()
	if s.SessionsOpened != 3 || s.SessionsClosed != 2 || s.SessionsEvicted != 0 {
		t.Fatalf("lifecycle counters = %+v", s)
	}
	if s.BatchesPushed != 1 || s.EventsEmitted == 0 {
		t.Fatalf("data-path counters = %+v", s)
	}
}

func TestGatewayDeterministicIdleEviction(t *testing.T) {
	clk := time.Unix(5000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	advance := func(d time.Duration) { mu.Lock(); clk = clk.Add(d); mu.Unlock() }

	gw := testGateway(t, baselineFleet(),
		adasense.WithIdleTTL(60*time.Second),
		adasense.WithGatewayClock(now))
	b := gatewayBatch(t)

	s1, err := gw.Open("idle")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := gw.Open("busy")
	if err != nil {
		t.Fatal(err)
	}

	advance(30 * time.Second)
	if _, err := s2.Push(b); err != nil { // refreshes busy's idle timer
		t.Fatal(err)
	}
	advance(30 * time.Second)

	// idle has been idle the full 60 s, busy only 30 s.
	evicted := gw.EvictIdle()
	if len(evicted) != 1 || evicted[0] != "idle" {
		t.Fatalf("EvictIdle = %v, want [idle]", evicted)
	}
	if _, err := s1.Push(b); !errors.Is(err, adasense.ErrSessionClosed) {
		t.Fatalf("Push after eviction = %v, want ErrSessionClosed", err)
	}
	if _, ok := gw.Lookup("idle"); ok {
		t.Fatal("evicted session still registered")
	}
	if _, err := s2.Push(b); err != nil {
		t.Fatalf("survivor broken after sweep: %v", err)
	}

	// The evicted id is immediately reusable, and closing the stale
	// handle must not unregister its successor.
	s1b, err := gw.Open("idle")
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if got, ok := gw.Lookup("idle"); !ok || got != s1b {
		t.Fatal("stale Close unregistered the reopened session")
	}

	s := gw.Stats()
	if s.SessionsEvicted != 1 || s.SessionsOpened != 3 {
		t.Fatalf("eviction counters = %+v", s)
	}

	// A gateway without a TTL never evicts.
	gwNoTTL := testGateway(t, baselineFleet())
	if _, err := gwNoTTL.Open("x"); err != nil {
		t.Fatal(err)
	}
	if ev := gwNoTTL.EvictIdle(); len(ev) != 0 {
		t.Fatalf("TTL-less gateway evicted %v", ev)
	}
}

func TestGatewaySwapModel(t *testing.T) {
	gw := testGateway(t, baselineFleet())
	b := gatewayBatch(t)

	live, err := gw.Open("pinned")
	if err != nil {
		t.Fatal(err)
	}
	oldSvc := gw.Service()
	if live.Service() != oldSvc {
		t.Fatal("fresh session not pinned to the current service")
	}

	// An invalid system must be rejected without touching the gateway.
	if err := gw.SwapModel(nil); err == nil {
		t.Fatal("nil system swap accepted")
	}
	if gw.Service() != oldSvc || gw.Stats().ModelSwaps != 0 {
		t.Fatal("rejected swap disturbed the gateway")
	}

	if err := gw.SwapModel(altSystem(t)); err != nil {
		t.Fatal(err)
	}
	newSvc := gw.Service()
	if newSvc == oldSvc {
		t.Fatal("SwapModel did not repoint the gateway")
	}
	if newSvc.System() != altSystem(t) {
		t.Fatal("new service does not serve the swapped system")
	}

	// Live sessions keep the pinned model; new sessions get the new one.
	if live.Service() != oldSvc {
		t.Fatal("swap moved a live session")
	}
	if _, err := live.Push(b); err != nil {
		t.Fatalf("live session broken by swap: %v", err)
	}
	fresh, err := gw.Open("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Service() != newSvc {
		t.Fatal("post-swap session not on the new service")
	}

	// Migrate is the opt-in re-pin; migrating while current is a no-op.
	if err := live.Migrate(); err != nil {
		t.Fatal(err)
	}
	if live.Service() != newSvc {
		t.Fatal("Migrate did not re-pin the session")
	}
	if err := live.Migrate(); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Push(b); err != nil {
		t.Fatalf("migrated session broken: %v", err)
	}

	live.Close()
	if err := live.Migrate(); !errors.Is(err, adasense.ErrSessionClosed) {
		t.Fatalf("Migrate after Close = %v, want ErrSessionClosed", err)
	}
	if got := gw.Stats().ModelSwaps; got != 1 {
		t.Fatalf("ModelSwaps = %d, want 1", got)
	}
}

// TestGatewaySwapWhileSessionsPush is the hot-swap race proof: a fleet of
// sessions pushes continuously (half of them migrating as they go) while
// the main goroutine hot-swaps the model back and forth and serves
// one-shot Classify calls. Under -race this must be clean, every push
// must succeed, and the telemetry totals must balance.
func TestGatewaySwapWhileSessionsPush(t *testing.T) {
	const pushers, pushes, swaps = 8, 50, 20
	sysA, _ := trainedSystem(t)
	sysB := altSystem(t)
	gw := testGateway(t, baselineFleet())
	b := gatewayBatch(t)

	var wg sync.WaitGroup
	errs := make([]error, pushers)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sess, err := gw.Open(fmt.Sprintf("dev-%d", p))
			if err != nil {
				errs[p] = err
				return
			}
			defer sess.Close()
			for i := 0; i < pushes; i++ {
				if _, err := sess.Push(b); err != nil {
					errs[p] = fmt.Errorf("push %d: %w", i, err)
					return
				}
				if p%2 == 0 && i%10 == 9 {
					if err := sess.Migrate(); err != nil {
						errs[p] = fmt.Errorf("migrate at %d: %w", i, err)
						return
					}
				}
			}
		}(p)
	}

	for i := 0; i < swaps; i++ {
		sys := sysA
		if i%2 == 0 {
			sys = sysB
		}
		if err := gw.SwapModel(sys); err != nil {
			t.Fatal(err)
		}
		if _, err := gw.Classify(b); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	for p, err := range errs {
		if err != nil {
			t.Fatalf("pusher %d: %v", p, err)
		}
	}
	s := gw.Stats()
	if s.BatchesPushed != pushers*pushes {
		t.Fatalf("BatchesPushed = %d, want %d", s.BatchesPushed, pushers*pushes)
	}
	if s.ModelSwaps != swaps || s.ClassifyCalls != swaps {
		t.Fatalf("swap counters = %+v", s)
	}
	if s.SessionsOpened != pushers || s.SessionsClosed != pushers {
		t.Fatalf("session counters = %+v", s)
	}
	if gw.NumSessions() != 0 {
		t.Fatalf("NumSessions = %d after all closed", gw.NumSessions())
	}
	if s.PoolHitRate == 0 {
		t.Fatalf("pool hit rate stayed zero: %+v", s)
	}
}

// TestGatewayHardeningValidation covers the option validation added with
// auth, rate limiting and drain.
func TestGatewayHardeningValidation(t *testing.T) {
	sys, _ := trainedSystem(t)
	if _, err := adasense.NewGateway(sys, adasense.WithAuth("")); err == nil {
		t.Fatal("empty auth token accepted")
	}
	if _, err := adasense.NewGateway(sys, adasense.WithDrainTimeout(-time.Second)); err == nil {
		t.Fatal("negative drain timeout accepted")
	}
	// A positive rate with no burst never admits anything — rejected.
	if _, err := adasense.NewGateway(sys, adasense.WithRateLimit(adasense.RateLimit{DevicePerSec: 1})); err == nil {
		t.Fatal("device rate without burst accepted")
	}
	if _, err := adasense.NewGateway(sys, adasense.WithRateLimit(adasense.RateLimit{GlobalPerSec: 1})); err == nil {
		t.Fatal("global rate without burst accepted")
	}
}

// TestGatewayStatsSnapshot is the regression test for the Stats gauges:
// registry occupancy, capacity and drain state must come out of the one
// snapshot, so /metrics never reaches into gateway internals.
func TestGatewayStatsSnapshot(t *testing.T) {
	gw := testGateway(t, baselineFleet(), adasense.WithMaxSessions(5))

	s := gw.Stats()
	if s.SessionsLive != 0 || s.SessionCapacity != 5 || s.Draining {
		t.Fatalf("fresh stats = %+v", s)
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := gw.Open(id); err != nil {
			t.Fatal(err)
		}
	}
	if s := gw.Stats(); s.SessionsLive != 3 || s.SessionsLive != gw.NumSessions() {
		t.Fatalf("occupancy = %+v, NumSessions = %d", s, gw.NumSessions())
	}
	if err := gw.CloseSession("b"); err != nil {
		t.Fatal(err)
	}
	if s := gw.Stats(); s.SessionsLive != 2 {
		t.Fatalf("occupancy after close = %+v", s)
	}
	if err := gw.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s = gw.Stats()
	if !s.Draining || s.SessionsLive != 0 || s.SessionCapacity != 5 {
		t.Fatalf("stats after drain = %+v", s)
	}

	// The Prometheus writer is fed by the same snapshot.
	var b strings.Builder
	if err := gw.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"adasense_sessions_live 0\n",
		"adasense_session_capacity 5\n",
		"adasense_draining 1\n",
		"adasense_sessions_opened_total 3\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("WriteMetrics missing %q:\n%s", want, b.String())
		}
	}
}

// TestServingStatsJSONKeys pins the top-level JSON key set of Stats(),
// the shape operators and scripts read off the gateway's counters and
// gauges: renaming, dropping or nesting a field fails here.
func TestServingStatsJSONKeys(t *testing.T) {
	raw, err := json.Marshal(testGateway(t).Stats())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"auth_rejects", "batches_pushed", "batches_refused", "classify_calls", "draining",
		"events_emitted", "handoffs_cold", "handoffs_stateful", "latency",
		"model_catchups", "model_generation", "model_swaps", "peer_errors",
		"pool_hit_rate", "pool_hits", "pool_misses", "rate_limited_device",
		"rate_limited_global", "rebalances", "requests_forwarded",
		"rollout_canary_classifies", "rollout_fraction", "rollout_stage",
		"rollouts_promoted", "rollouts_rolled_back", "session_capacity",
		"sessions_closed", "sessions_evicted", "sessions_handed_off",
		"sessions_live", "sessions_opened", "stale_routes", "swaps_replicated",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats() JSON keys:\n got %q\nwant %q", got, want)
	}
}

func TestGatewayAuthorize(t *testing.T) {
	open := testGateway(t, baselineFleet())
	if open.AuthRequired() {
		t.Fatal("auth-less gateway claims AuthRequired")
	}
	if !open.Authorize("") || !open.Authorize("anything") {
		t.Fatal("auth-less gateway rejected a token")
	}

	gw := testGateway(t, baselineFleet(), adasense.WithAuth("hunter2"))
	if !gw.AuthRequired() {
		t.Fatal("AuthRequired = false with WithAuth")
	}
	if gw.Authorize("") || gw.Authorize("hunter") || gw.Authorize("hunter22") {
		t.Fatal("wrong token authorized")
	}
	if !gw.Authorize("hunter2") {
		t.Fatal("right token rejected")
	}
	if got := gw.Stats().AuthRejects; got != 3 {
		t.Fatalf("AuthRejects = %d, want 3", got)
	}
}

func TestGatewayRateLimit(t *testing.T) {
	clk := time.Unix(8000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	advance := func(d time.Duration) { mu.Lock(); clk = clk.Add(d); mu.Unlock() }

	gw := testGateway(t, baselineFleet(),
		adasense.WithGatewayClock(now),
		adasense.WithRateLimit(adasense.RateLimit{
			DevicePerSec: 1, DeviceBurst: 2,
			GlobalPerSec: 100, GlobalBurst: 100,
		}))
	b := gatewayBatch(t)

	// Device burst of 2: the open plus one push, then ErrRateLimited.
	sess, err := gw.Open("dev")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Push(b); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Push(b); !errors.Is(err, adasense.ErrRateLimited) {
		t.Fatalf("over-budget push = %v, want ErrRateLimited", err)
	}
	// The rejected push did not close or corrupt the session.
	advance(time.Second)
	if _, err := sess.Push(b); err != nil {
		t.Fatalf("post-refill push = %v", err)
	}

	// A flooding open is shed before any session is built.
	if _, err := gw.Open("dev"); !errors.Is(err, adasense.ErrRateLimited) {
		t.Fatalf("over-budget open = %v, want ErrRateLimited", err)
	}

	// Classify charges only the global bucket; exhaust it and every
	// keyed call is denied globally too.
	for i := 0; i < 200; i++ {
		gw.Classify(b)
	}
	if _, err := gw.Classify(b); !errors.Is(err, adasense.ErrRateLimited) {
		t.Fatalf("over-global classify = %v, want ErrRateLimited", err)
	}
	advance(10 * time.Second) // refills both buckets to their bursts
	if _, err := sess.Push(b); err != nil {
		t.Fatalf("push after global refill = %v", err)
	}

	s := gw.Stats()
	if s.RateLimitedDevice != 2 {
		t.Fatalf("RateLimitedDevice = %d, want 2", s.RateLimitedDevice)
	}
	if s.RateLimitedGlobal == 0 {
		t.Fatalf("RateLimitedGlobal = %d, want > 0", s.RateLimitedGlobal)
	}
}

// nanBatch is gatewayBatch with one NaN reading, which Batch.Validate
// refuses.
func nanBatch(t *testing.T) *adasense.Batch {
	t.Helper()
	b := *gatewayBatch(t)
	b.X = append([]float64(nil), b.X...)
	b.X[3] = math.NaN()
	return &b
}

// TestGatewayRefusedBatchSpendsNoToken: a batch the gateway refuses is
// checked before the rate limit, so it does not cost the device the
// token its next valid push needs.
func TestGatewayRefusedBatchSpendsNoToken(t *testing.T) {
	gw := testGateway(t, baselineFleet(),
		adasense.WithRateLimit(adasense.RateLimit{DevicePerSec: 0.001, DeviceBurst: 2}))
	sess, err := gw.Open("dev") // the first of the burst's two tokens
	if err != nil {
		t.Fatal(err)
	}
	var be *adasense.BatchError
	if _, err := sess.Push(nanBatch(t)); !errors.As(err, &be) {
		t.Fatalf("NaN push = %v, want a *BatchError", err)
	}
	if _, err := sess.Push(gatewayBatch(t)); err != nil {
		t.Fatalf("valid push after a refused one = %v, want nil", err)
	}
	if s := gw.Stats(); s.RateLimitedDevice != 0 {
		t.Fatalf("RateLimitedDevice = %d, want 0", s.RateLimitedDevice)
	}
}

// TestGatewayCountsRefusedBatches: each batch the gateway's batch check
// refuses, pushed or classified, counts once in BatchesRefused (the
// adasense_batches_refused_total series) and never as pushed; a valid
// push, a wrong-config push and a bare Session's refusal leave it alone.
func TestGatewayCountsRefusedBatches(t *testing.T) {
	gw := testGateway(t, baselineFleet())
	sess, err := gw.Open("dev")
	if err != nil {
		t.Fatal(err)
	}
	refused := func(want uint64) {
		t.Helper()
		if s := gw.Stats(); s.BatchesRefused != want {
			t.Fatalf("BatchesRefused = %d, want %d", s.BatchesRefused, want)
		}
	}
	var be *adasense.BatchError
	if _, err := sess.Push(nanBatch(t)); !errors.As(err, &be) {
		t.Fatalf("NaN push = %v, want a *BatchError", err)
	}
	refused(1)
	if _, err := gw.Classify(nanBatch(t)); !errors.As(err, &be) {
		t.Fatalf("NaN classify = %v, want a *BatchError", err)
	}
	refused(2)
	if _, err := sess.Push(gatewayBatch(t)); err != nil {
		t.Fatal(err)
	}
	wrong := gatewayBatch(t)
	wrong.Config = adasense.ParetoStates()[3]
	if _, err := sess.Push(wrong); err == nil || errors.As(err, &be) {
		t.Fatalf("wrong-config push = %v, want a config mismatch", err)
	}
	bare, err := testService(t).OpenSession("bare")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Push(nanBatch(t)); !errors.As(err, &be) {
		t.Fatalf("bare session NaN push = %v, want a *BatchError", err)
	}
	refused(2)
	if s := gw.Stats(); s.BatchesPushed != 1 {
		t.Fatalf("BatchesPushed = %d, want 1", s.BatchesPushed)
	}
}

// TestGatewayRefusedClassifySpendsNoToken: Classify checks its batch
// before it charges the global bucket, so a refused batch leaves the
// token the next valid call needs.
func TestGatewayRefusedClassifySpendsNoToken(t *testing.T) {
	gw := testGateway(t, baselineFleet(),
		adasense.WithRateLimit(adasense.RateLimit{GlobalPerSec: 0.001, GlobalBurst: 1}))
	var be *adasense.BatchError
	if _, err := gw.Classify(nanBatch(t)); !errors.As(err, &be) {
		t.Fatalf("NaN classify = %v, want a *BatchError", err)
	}
	if _, err := gw.Classify(gatewayBatch(t)); err != nil {
		t.Fatalf("valid classify after a refused one = %v, want nil", err)
	}
	if s := gw.Stats(); s.RateLimitedGlobal != 0 {
		t.Fatalf("RateLimitedGlobal = %d, want 0", s.RateLimitedGlobal)
	}
}

// TestGatewayRefusedBatchIsNoRolloutError: during an active rollout, a
// refused batch leaves both arms' error counts where they were, while
// a push the session itself fails (a batch at the wrong configuration)
// still counts against the device's arm.
func TestGatewayRefusedBatchIsNoRolloutError(t *testing.T) {
	gw := testGateway(t, baselineFleet())
	sess, err := gw.Open("dev")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.StartRollout(modelBytes(t), adasense.DefaultRolloutConfig()); err != nil {
		t.Fatal(err)
	}
	armErrors := func() uint64 {
		t.Helper()
		st, err := gw.RolloutStatus()
		if err != nil {
			t.Fatal(err)
		}
		return st.Canary.Errors + st.Incumbent.Errors
	}
	if _, err := sess.Push(nanBatch(t)); err == nil {
		t.Fatal("NaN push accepted")
	}
	if got := armErrors(); got != 0 {
		t.Fatalf("arm errors after a refused batch = %d, want 0", got)
	}
	wrong := *gatewayBatch(t)
	wrong.Config = adasense.ParetoStates()[3]
	if _, err := sess.Push(&wrong); err == nil {
		t.Fatal("push at the wrong configuration accepted")
	}
	if got := armErrors(); got != 1 {
		t.Fatalf("arm errors after a failed push = %d, want 1", got)
	}
}

func TestGatewayDrain(t *testing.T) {
	gw := testGateway(t, baselineFleet())
	b := gatewayBatch(t)

	sessions := make([]*adasense.GatewaySession, 5)
	for i := range sessions {
		s, err := gw.Open(fmt.Sprintf("dev-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	if gw.Draining() {
		t.Fatal("Draining before Drain")
	}
	if err := gw.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !gw.Draining() || gw.NumSessions() != 0 {
		t.Fatalf("after drain: draining=%v live=%d", gw.Draining(), gw.NumSessions())
	}
	for _, s := range sessions {
		if _, err := s.Push(b); !errors.Is(err, adasense.ErrSessionClosed) {
			t.Fatalf("push after drain = %v, want ErrSessionClosed", err)
		}
	}
	if _, err := gw.Open("late"); !errors.Is(err, adasense.ErrGatewayDraining) {
		t.Fatalf("open while draining = %v, want ErrGatewayDraining", err)
	}
	// Drain is idempotent, and the close counters balance exactly once.
	if err := gw.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := gw.Stats()
	if s.SessionsClosed != 5 || s.SessionsOpened != 5 {
		t.Fatalf("drain counters = %+v", s)
	}

	// A dead context surfaces as a drain error when sessions are live.
	gw2 := testGateway(t, baselineFleet())
	if _, err := gw2.Open("x"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := gw2.Drain(ctx); err == nil && gw2.NumSessions() != 0 {
		t.Fatal("canceled drain reported success with live sessions")
	}
}

// TestGatewayDrainWhileFleetPushes is the SIGTERM-style race proof: a
// fleet pushes continuously, a model swap lands mid-drain, and Drain
// must still return with zero live sessions before its deadline. Run
// with -race. The gateway clock is fake, pinning idle eviction out of
// the picture; drain progress itself is wall-clock bounded.
func TestGatewayDrainWhileFleetPushes(t *testing.T) {
	const pushers = 8
	clk := time.Unix(9000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }

	gw := testGateway(t, baselineFleet(),
		adasense.WithGatewayClock(now),
		adasense.WithIdleTTL(time.Hour),
		adasense.WithDrainTimeout(20*time.Second))
	b := gatewayBatch(t)

	// Open the whole fleet before the drain can begin, then let every
	// pusher hammer its session until the drain closes it under them.
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		sess, err := gw.Open(fmt.Sprintf("dev-%d", p))
		if err != nil {
			t.Fatalf("open %d: %v", p, err)
		}
		wg.Add(1)
		go func(p int, sess *adasense.GatewaySession) {
			defer wg.Done()
			for {
				if _, err := sess.Push(b); err != nil {
					if !errors.Is(err, adasense.ErrSessionClosed) {
						t.Errorf("pusher %d: %v", p, err)
					}
					break
				}
			}
			// The session was closed, so the drain has begun; a reopen
			// must be refused.
			if _, err := gw.Open(fmt.Sprintf("dev-%d-re", p)); !errors.Is(err, adasense.ErrGatewayDraining) {
				t.Errorf("pusher %d reopen = %v, want ErrGatewayDraining", p, err)
			}
		}(p, sess)
	}

	// Drain while the fleet pushes, with a swap landing mid-drain.
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		if err := gw.SwapModel(altSystem(t)); err != nil {
			t.Errorf("swap mid-drain: %v", err)
		}
	}()
	if err := gw.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-swapDone
	wg.Wait()

	if n := gw.NumSessions(); n != 0 {
		t.Fatalf("live sessions after drain = %d", n)
	}
	s := gw.Stats()
	if s.SessionsClosed != s.SessionsOpened {
		t.Fatalf("open/close counters unbalanced after drain: %+v", s)
	}
	if !s.Draining || s.SessionsLive != 0 {
		t.Fatalf("stats after drain = %+v", s)
	}
}
