package adasense_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"adasense"
	"adasense/internal/nn"
	"adasense/internal/rng"
	"adasense/internal/sim"
)

func testService(t *testing.T, opts ...adasense.Option) *adasense.Service {
	t.Helper()
	sys, _ := trainedSystem(t)
	svc, err := adasense.NewService(sys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestNewServiceValidation(t *testing.T) {
	sys, _ := trainedSystem(t)
	if _, err := adasense.NewService(nil); err == nil {
		t.Fatal("nil system accepted")
	}
	if _, err := adasense.NewService(sys, adasense.WithControllerFactory(nil)); err == nil {
		t.Fatal("nil controller factory accepted")
	}
}

func TestServiceDefaultsAndOptions(t *testing.T) {
	svc := testService(t)
	if svc.PowerModel() != adasense.DefaultPowerModel() {
		t.Fatalf("power model = %+v, want the default", svc.PowerModel())
	}
	sess, err := svc.OpenSession("geometry-check")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.WindowSec != 2 || st.HopSec != 1 {
		t.Fatalf("snapshot geometry = %v/%v, want 2/1", st.WindowSec, st.HopSec)
	}
	// The 1 s hop reaches the session's engine: a 4 s push completes
	// exactly four classification ticks.
	m := adasense.NewMotion(mustSchedule(t, adasense.Segment{Activity: adasense.Sit, Duration: 10}), 5)
	b := adasense.NewSampler(adasense.DefaultNoiseModel(), 6).Sample(m, sess.Config(), 0, 4)
	events, err := sess.Push(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("4 s push at a 1 s hop produced %d events, want 4", len(events))
	}
}

func TestServiceControllerFactoryIsPerSession(t *testing.T) {
	var mu sync.Mutex
	minted := 0
	svc := testService(t, adasense.WithControllerFactory(func() adasense.Controller {
		mu.Lock()
		minted++
		mu.Unlock()
		return adasense.NewSPOT(5)
	}))
	for i := 0; i < 3; i++ {
		sess, err := svc.OpenSession(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sess.Close()
	}
	if minted != 3 {
		t.Fatalf("factory minted %d controllers for 3 sessions", minted)
	}
}

func TestSessionLifecycle(t *testing.T) {
	svc := testService(t)
	sess, err := svc.OpenSession("dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() != "dev-1" {
		t.Fatalf("ID = %q", sess.ID())
	}
	if sess.Config() != adasense.ParetoStates()[0] {
		t.Fatal("fresh session must start at the highest-accuracy configuration")
	}
	sess.Close()
	sess.Close() // idempotent
	if _, err := sess.Push(&adasense.Batch{Config: adasense.ParetoStates()[0]}); err == nil {
		t.Fatal("closed session accepted a push")
	}
	sess.Reset() // must be a no-op, not a panic
	if sess.Config() != adasense.ParetoStates()[0] {
		t.Fatal("closed session lost its last configuration")
	}
}

// sessionTrace summarizes one deterministic session run so concurrent
// executions can be compared against a serial reference.
type sessionTrace struct {
	events   int
	finalCfg string
	activity string // concatenated per-tick activity indices
	confSum  float64
}

// driveSession streams secs seconds of deterministic synthetic data
// through one fresh session. Everything is derived from id, so the same
// id always produces the same trace no matter what other goroutines do.
func driveSession(svc *adasense.Service, id int, secs int) (sessionTrace, error) {
	sess, err := svc.OpenSession(fmt.Sprintf("device-%d", id))
	if err != nil {
		return sessionTrace{}, err
	}
	defer sess.Close()
	seed := uint64(1000 + id)
	sched := adasense.RandomSchedule(seed, float64(secs), 10, 20)
	motion := adasense.NewMotion(sched, seed+1)
	sampler := adasense.NewSampler(adasense.DefaultNoiseModel(), seed+2)
	var tr sessionTrace
	var acts strings.Builder
	for tick := 0; tick < secs; tick++ {
		b := sampler.Sample(motion, sess.Config(), float64(tick), float64(tick)+1)
		events, err := sess.Push(b)
		if err != nil {
			return tr, err
		}
		for _, ev := range events {
			tr.events++
			fmt.Fprintf(&acts, "%d,", int(ev.Classification.Activity))
			tr.confSum += ev.Classification.Confidence
		}
	}
	tr.finalCfg = sess.Config().Name()
	tr.activity = acts.String()
	return tr, nil
}

// TestServiceConcurrentSessions drives twelve goroutines through one
// Service concurrently — each with its own Session — and checks every
// session reproduces its serial reference exactly. Run under -race this
// is the serving layer's isolation proof: one immutable shared network,
// per-session state, pooled scratch buffers.
func TestServiceConcurrentSessions(t *testing.T) {
	const sessions, secs = 12, 40
	svc := testService(t)

	// Serial references, one per session id.
	want := make([]sessionTrace, sessions)
	for id := range want {
		tr, err := driveSession(svc, id, secs)
		if err != nil {
			t.Fatal(err)
		}
		if tr.events < secs-5 {
			t.Fatalf("session %d produced only %d events over %d s", id, tr.events, secs)
		}
		want[id] = tr
	}

	got := make([]sessionTrace, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for id := 0; id < sessions; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			got[id], errs[id] = driveSession(svc, id, secs)
		}(id)
	}
	wg.Wait()

	for id := 0; id < sessions; id++ {
		if errs[id] != nil {
			t.Fatalf("session %d: %v", id, errs[id])
		}
		if got[id] != want[id] {
			t.Fatalf("session %d diverged under concurrency:\n got %+v\nwant %+v", id, got[id], want[id])
		}
	}
}

// TestServiceClassifyConcurrent mixes stateless Classify calls from many
// goroutines with an active session, exercising the pipeline pool.
func TestServiceClassifyConcurrent(t *testing.T) {
	svc := testService(t)
	m := adasense.NewMotion(mustSchedule(t, adasense.Segment{Activity: adasense.Walk, Duration: 30}), 9)
	cfg := adasense.ParetoStates()[0]

	if _, err := svc.Classify(nil); err == nil {
		t.Fatal("nil batch accepted")
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sampler := adasense.NewSampler(adasense.DefaultNoiseModel(), uint64(50+g))
			for i := 0; i < 20; i++ {
				b := sampler.Sample(m, cfg, float64(i), float64(i)+2)
				cls, err := svc.Classify(b)
				if err != nil {
					errCh <- err
					return
				}
				if cls.Confidence <= 0 || cls.Confidence > 1 {
					errCh <- fmt.Errorf("confidence %v out of range", cls.Confidence)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestServiceRunMatchesLegacySimulate checks Service.Run against the
// bare closed loop it wraps, sim.Run over a hand-assembled spec.
func TestServiceRunMatchesLegacySimulate(t *testing.T) {
	sys, _ := trainedSystem(t)
	svc := testService(t)
	sched := mustSchedule(t,
		adasense.Segment{Activity: adasense.Sit, Duration: 60},
		adasense.Segment{Activity: adasense.Walk, Duration: 60})

	got, err := svc.Run(context.Background(), adasense.RunSpec{
		Motion:     adasense.NewMotion(sched, 11),
		Controller: adasense.NewSPOTWithConfidence(8),
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}

	pipe, err := sys.NewPipeline()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(sim.Spec{
		Motion:     adasense.NewMotion(sched, 11),
		Controller: adasense.NewSPOTWithConfidence(8),
		Classifier: pipe,
	}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if got.SensorChargeUC != want.SensorChargeUC || got.Accuracy() != want.Accuracy() || got.Ticks != want.Ticks {
		t.Fatalf("Service.Run diverged from sim.Run:\n got %v/%v/%d\nwant %v/%v/%d",
			got.SensorChargeUC, got.Accuracy(), got.Ticks,
			want.SensorChargeUC, want.Accuracy(), want.Ticks)
	}
}

func TestServiceRunManyParallelMatchesSerial(t *testing.T) {
	svc := testService(t)
	specs := make([]adasense.RunSpec, 9)
	for i := range specs {
		seed := uint64(200 + i)
		specs[i] = adasense.RunSpec{
			Motion: adasense.NewMotion(adasense.RandomSchedule(seed, 120, 20, 40), seed+1),
			Seed:   seed + 2,
		}
	}
	serial, err := svc.RunMany(context.Background(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := svc.RunMany(context.Background(), specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if serial[i].SensorChargeUC != parallel[i].SensorChargeUC ||
			serial[i].Accuracy() != parallel[i].Accuracy() {
			t.Fatalf("spec %d: parallel result diverged from serial", i)
		}
		if serial[i].Ticks != 120 {
			t.Fatalf("spec %d: ticks = %d, want 120", i, serial[i].Ticks)
		}
	}
}

// TestServiceAcquireSurfacesBuildError pins the pipeline pool's error
// contract: when a pool miss fails to build a pipeline, the caller sees
// the underlying construction error, not a generic message. The only way
// to make construction fail after NewService's validation is to mutate
// the System behind the service's back — which is exactly the misuse the
// error has to diagnose.
func TestServiceAcquireSurfacesBuildError(t *testing.T) {
	// A self-contained tiny system (15 inputs = 3 axes × (2 + 3 default
	// spectral bins)); the shared trainedSystem must not be mutated.
	sys := &adasense.System{Network: nn.New(15, 4, adasense.NumActivities, rng.New(1))}
	svc, err := adasense.NewService(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: swap in a network whose input size contradicts the
	// feature layout. The pool holds one validated pipeline; opening
	// sessions without closing them drains it and forces a build.
	sys.Network = nn.New(10, 4, adasense.NumActivities, rng.New(2))
	for i := 0; i < 3; i++ {
		_, err = svc.OpenSession(fmt.Sprintf("drain-%d", i))
		if err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("pool rebuild over a corrupted system succeeded")
	}
	if !strings.Contains(err.Error(), "building pipeline for shared classifier") {
		t.Fatalf("error lost its context: %v", err)
	}
	if !strings.Contains(err.Error(), "extractor size") {
		t.Fatalf("error lost the underlying cause: %v", err)
	}
}

// cancelingController cancels a context the first time it observes a
// classification, then behaves like the baseline. It lets a test cancel
// RunMany deterministically from inside a running spec.
type cancelingController struct {
	adasense.Controller
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelingController) Observe(a adasense.Activity, conf float64) {
	c.once.Do(c.cancel)
	c.Controller.Observe(a, conf)
}

// TestServiceRunManyCancelMidFanOut pins RunMany's partial-results
// contract: cancellation mid-fan-out returns ctx.Err(), the specs that
// completed before the stop keep their results, and the specs that never
// ran are zero-valued (Ticks == 0).
func TestServiceRunManyCancelMidFanOut(t *testing.T) {
	svc := testService(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	specs := make([]adasense.RunSpec, 4)
	for i := range specs {
		seed := uint64(400 + i)
		specs[i] = adasense.RunSpec{
			Motion: adasense.NewMotion(adasense.RandomSchedule(seed, 60, 10, 20), seed+1),
			Seed:   seed + 2,
		}
	}
	// Spec 0 pulls the plug as soon as it starts classifying; with one
	// worker, spec 0 still runs to completion and specs 1..3 never start.
	specs[0].Controller = &cancelingController{
		Controller: adasense.NewBaselineController(),
		cancel:     cancel,
	}

	results, err := svc.RunMany(ctx, specs, 1)
	if err != context.Canceled {
		t.Fatalf("mid-fan-out cancel returned %v, want context.Canceled", err)
	}
	if len(results) != len(specs) {
		t.Fatalf("len(results) = %d, want %d", len(results), len(specs))
	}
	if results[0].Ticks != 60 {
		t.Fatalf("in-flight spec lost its result: Ticks = %d, want 60", results[0].Ticks)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Ticks != 0 {
			t.Fatalf("unrun spec %d has non-zero result: %+v", i, results[i])
		}
	}
}

func TestServiceRunManyErrors(t *testing.T) {
	svc := testService(t)
	// A spec with no motion fails validation; the error names the run.
	_, err := svc.RunMany(context.Background(), []adasense.RunSpec{{Seed: 1}}, 2)
	if err == nil {
		t.Fatal("nil motion accepted")
	}
	if !strings.Contains(err.Error(), "run 0") {
		t.Fatalf("error does not name the failing run: %v", err)
	}

	// A pre-canceled context returns promptly with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sched := adasense.RandomSchedule(3, 60, 10, 20)
	_, err = svc.RunMany(ctx, []adasense.RunSpec{
		{Motion: adasense.NewMotion(sched, 4), Seed: 5},
	}, 1)
	if err != context.Canceled {
		t.Fatalf("canceled context returned %v, want context.Canceled", err)
	}

	// Empty spec list is a no-op.
	res, err := svc.RunMany(context.Background(), nil, 4)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty RunMany = %v, %v", res, err)
	}
}

func mustSchedule(t *testing.T, segs ...adasense.Segment) *adasense.Schedule {
	t.Helper()
	s, err := adasense.NewSchedule(segs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
