package adasense_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"adasense"
)

// spotFleet mints a fresh SPOT per session so handoff tests exercise the
// stateful controller path.
func spotFleet(stability int) adasense.Option {
	return adasense.WithControllerFactory(func() adasense.Controller {
		return adasense.NewSPOT(stability)
	})
}

// encodeState is AppendBinary with a test-fatal error path.
func encodeState(t *testing.T, st *adasense.SessionState) []byte {
	t.Helper()
	buf, err := st.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSessionSnapshotRestoreDifferential is the service-level half of
// the handoff equivalence proof: a session restored on a second,
// identically configured service (the stand-in for the receiving
// replica) must emit the same remaining event stream, track the same
// configuration, and carry the same energy ledger as the session that
// never moved — and after replay, the two ADSS encodings must be
// byte-identical.
func TestSessionSnapshotRestoreDifferential(t *testing.T) {
	sys, _ := trainedSystem(t)
	for _, snapSecs := range []float64{0.9, 4.5, 10.2} {
		t.Run(fmt.Sprintf("snapshot-at-%.1fs", snapSecs), func(t *testing.T) {
			mkSvc := func() *adasense.Service {
				svc, err := adasense.NewService(sys, spotFleet(2))
				if err != nil {
					t.Fatal(err)
				}
				return svc
			}
			control, err := mkSvc().OpenSession("control")
			if err != nil {
				t.Fatal(err)
			}
			m := adasense.NewMotion(mustSchedule(t,
				adasense.Segment{Activity: adasense.Walk, Duration: 12},
				adasense.Segment{Activity: adasense.Sit, Duration: 48},
			), 31)
			sampler := adasense.NewSampler(adasense.DefaultNoiseModel(), 32)

			const sliver = 0.3
			clock := 0.0
			for clock+sliver/2 < snapSecs {
				b := sampler.Sample(m, control.Config(), clock, clock+sliver)
				if _, err := control.Push(b); err != nil {
					t.Fatal(err)
				}
				clock += sliver
			}

			st, err := control.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// The snapshot crosses replicas as ADSS bytes; decode what a
			// receiver would actually see.
			decoded, err := adasense.DecodeSessionState(encodeState(t, st))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := mkSvc().OpenSession("restored")
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(decoded); err != nil {
				t.Fatal(err)
			}
			if restored.Config() != control.Config() {
				t.Fatalf("configs differ after restore: %s vs %s",
					restored.Config().Name(), control.Config().Name())
			}
			if restored.Energy() != control.Energy() {
				t.Fatalf("energy differs after restore: %+v vs %+v",
					restored.Energy(), control.Energy())
			}

			for i := 0; i < 60; i++ {
				cfg := control.Config()
				if restored.Config() != cfg {
					t.Fatalf("step %d: configs diverged", i)
				}
				b := sampler.Sample(m, cfg, clock, clock+sliver)
				evControl, errControl := control.Push(b)
				evRestored, errRestored := restored.Push(b)
				if (errControl == nil) != (errRestored == nil) {
					t.Fatalf("step %d: push errors diverged (%v vs %v)", i, errControl, errRestored)
				}
				if !reflect.DeepEqual(evControl, evRestored) {
					t.Fatalf("step %d: events diverged:\ncontrol:  %+v\nrestored: %+v",
						i, evControl, evRestored)
				}
				clock += sliver
			}

			if restored.Energy() != control.Energy() {
				t.Fatalf("energy trajectories diverged: %+v vs %+v",
					restored.Energy(), control.Energy())
			}
			stA, err := control.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			stB, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeState(t, stA), encodeState(t, stB)) {
				t.Fatal("post-replay ADSS encodings differ")
			}
		})
	}
}

// TestSessionRestoreRejects drives every refusal path of
// Session.Restore from a used session and asserts each refusal leaves
// the session Reset: a zero energy ledger and the engine in its opening
// state.
func TestSessionRestoreRejects(t *testing.T) {
	svc := testService(t, spotFleet(2))
	m := adasense.NewMotion(mustSchedule(t, adasense.Segment{Activity: adasense.Sit, Duration: 10}), 41)
	// used opens a session and pushes 1.3 s of readings into it, so it
	// holds a window remainder, a pending count and an energy ledger.
	used := func(id string) *adasense.Session {
		t.Helper()
		sess, err := svc.OpenSession(id)
		if err != nil {
			t.Fatal(err)
		}
		b := adasense.NewSampler(adasense.DefaultNoiseModel(), 42).Sample(m, sess.Config(), 0, 1.3)
		if _, err := sess.Push(b); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	snapshot := func(sess *adasense.Session) *adasense.SessionState {
		t.Helper()
		st, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	fresh, err := svc.OpenSession("fresh")
	if err != nil {
		t.Fatal(err)
	}
	cold := snapshot(fresh)
	fresh.Close()

	cases := []struct {
		name   string
		mangle func(*adasense.SessionState)
	}{
		{"geometry mismatch", func(st *adasense.SessionState) { st.WindowSec, st.HopSec = 4, 2 }},
		{"negative energy", func(st *adasense.SessionState) { st.Energy.ChargeUC = -1 }},
		{"NaN energy", func(st *adasense.SessionState) { st.Energy.ElapsedSec = math.NaN() }},
		{"engine reject resets energy", func(st *adasense.SessionState) {
			st.Engine.CtlState = st.Engine.CtlState[:3]
		}},
		{"invalid config", func(st *adasense.SessionState) { st.Engine.Config = adasense.Config{FreqHz: -1} }},
		{"controller kind mismatch", func(st *adasense.SessionState) { st.Engine.CtlKind = "spot/0" }},
		{"pending outside hop", func(st *adasense.SessionState) { st.Engine.Pending = -1 }},
		{"ragged window", func(st *adasense.SessionState) { st.Engine.Y = st.Engine.Y[:len(st.Engine.Y)-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			donor := used("donor")
			st := snapshot(donor)
			donor.Close()
			tc.mangle(st)

			sess := used("target")
			defer sess.Close()
			if err := sess.Restore(st); err == nil {
				t.Fatal("mangled snapshot accepted")
			}
			if e := sess.Energy(); e.ElapsedSec != 0 || e.ChargeUC != 0 {
				t.Fatalf("refused restore kept the energy ledger %+v", e)
			}
			if got := snapshot(sess); !reflect.DeepEqual(got, cold) {
				t.Fatalf("refused restore left the engine at %s (pending %d, %d window samples), want the opening state %s",
					got.Engine.Config.Name(), got.Engine.Pending, got.Engine.WindowLen(), cold.Engine.Config.Name())
			}
		})
	}
	t.Run("closed session", func(t *testing.T) {
		donor := used("donor")
		st := snapshot(donor)
		donor.Close()
		sess, err := svc.OpenSession("closed")
		if err != nil {
			t.Fatal(err)
		}
		sess.Close()
		if err := sess.Restore(st); err == nil {
			t.Fatal("closed session accepted a restore")
		}
	})
}

// TestSessionEnergyAccumulates pins the energy ledger: pushing at a
// given configuration charges the power model's current for the batch
// duration, and Reset zeroes the ledger.
func TestSessionEnergyAccumulates(t *testing.T) {
	svc := testService(t)
	sess, err := svc.OpenSession("energy")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if e := sess.Energy(); e != (adasense.EnergyEstimate{}) {
		t.Fatalf("fresh session has energy %+v", e)
	}
	m := adasense.NewMotion(mustSchedule(t, adasense.Segment{Activity: adasense.Sit, Duration: 10}), 51)
	sampler := adasense.NewSampler(adasense.DefaultNoiseModel(), 52)
	for tick := 0; tick < 3; tick++ {
		b := sampler.Sample(m, sess.Config(), float64(tick), float64(tick)+1)
		if _, err := sess.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	e := sess.Energy()
	if e.ElapsedSec != 3 {
		t.Fatalf("elapsed %v s after three 1 s pushes", e.ElapsedSec)
	}
	want := svc.PowerModel().CurrentUA(adasense.ParetoStates()[0]) * 3
	if math.Abs(e.ChargeUC-want) > 1e-9 {
		t.Fatalf("charge %v µC, want %v", e.ChargeUC, want)
	}
	if got := e.AvgCurrentUA(); math.Abs(got-want/3) > 1e-9 {
		t.Fatalf("avg current %v µA, want %v", got, want/3)
	}
	sess.Reset()
	if e := sess.Energy(); e != (adasense.EnergyEstimate{}) {
		t.Fatalf("Reset kept energy %+v", e)
	}
}

// TestGatewayRestoreSession covers the receiving replica's restore path:
// the stateful counter, the conflict on a live session, and the
// generation gate after a model swap.
func TestGatewayRestoreSession(t *testing.T) {
	gw := testGateway(t)
	donor, err := gw.Open("donor")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Push(gatewayBatch(t)); err != nil {
		t.Fatal(err)
	}
	st, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation == 0 {
		t.Fatal("gateway snapshot carries no model generation pin")
	}

	restored, err := gw.RestoreSession("moved", st)
	if err != nil {
		t.Fatal(err)
	}
	if got := gw.Stats().HandoffsStateful; got != 1 {
		t.Fatalf("HandoffsStateful = %d after one restore", got)
	}
	if restored.Config() != donor.Config() {
		t.Fatal("restored session's config differs from donor's")
	}
	// Restored sessions serve pushes immediately.
	if _, err := restored.Push(gatewayBatch(t)); err != nil {
		t.Fatal(err)
	}

	// A second restore under the same id conflicts: the device's own
	// traffic owns the session now.
	if _, err := gw.RestoreSession("moved", st); !errors.Is(err, adasense.ErrSessionExists) {
		t.Fatalf("duplicate restore: %v", err)
	}

	// After a model swap the gateway's generation moves on; a snapshot
	// pinned to the old generation must be refused so a device never
	// resumes a trajectory judged under a different model.
	if err := gw.SwapModel(altSystem(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.RestoreSession("stale-gen", st); !errors.Is(err, adasense.ErrStateGeneration) {
		t.Fatalf("stale-generation restore: %v", err)
	}
	if _, ok := gw.Lookup("stale-gen"); ok {
		t.Fatal("failed restore left a registered session behind")
	}
	if got := gw.Stats().HandoffsStateful; got != 1 {
		t.Fatalf("HandoffsStateful = %d after rejected restores", got)
	}

	if _, err := gw.RestoreSession("", st); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := gw.RestoreSession("nil-state", nil); err == nil {
		t.Fatal("nil state accepted")
	}
}

// TestGatewayAdoptSession pins the cold half: adoption opens a fresh
// session and counts it on adasense_handoffs_cold_total.
func TestGatewayAdoptSession(t *testing.T) {
	gw := testGateway(t)
	sess, err := gw.AdoptSession("wanderer")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Config() != adasense.ParetoStates()[0] {
		t.Fatal("adopted session did not start cold")
	}
	if got := gw.Stats().HandoffsCold; got != 1 {
		t.Fatalf("HandoffsCold = %d after one adoption", got)
	}
	if _, err := gw.AdoptSession("wanderer"); !errors.Is(err, adasense.ErrSessionExists) {
		t.Fatalf("duplicate adoption: %v", err)
	}
	if got := gw.Stats().HandoffsCold; got != 1 {
		t.Fatalf("HandoffsCold = %d after failed adoption", got)
	}
}

// TestGatewayMigrateKeepsTrajectory pins Migrate's stateful rebuild: a
// session re-pinned to the current model keeps its configuration,
// controller descent and energy ledger instead of restarting cold.
func TestGatewayMigrateKeepsTrajectory(t *testing.T) {
	gw := testGateway(t, adasense.WithServiceOptions(spotFleet(0)))
	sess, err := gw.Open("mover")
	if err != nil {
		t.Fatal(err)
	}
	m := adasense.NewMotion(mustSchedule(t, adasense.Segment{Activity: adasense.Walk, Duration: 60}), 61)
	sampler := adasense.NewSampler(adasense.DefaultNoiseModel(), 62)
	clock := 0.0
	for sess.Config() == adasense.ParetoStates()[0] && clock < 30 {
		b := sampler.Sample(m, sess.Config(), clock, clock+1)
		if _, err := sess.Push(b); err != nil {
			t.Fatal(err)
		}
		clock += 1
	}
	if sess.Config() == adasense.ParetoStates()[0] {
		t.Fatal("fixture: zero-threshold SPOT never descended")
	}
	cfgBefore, energyBefore := sess.Config(), sess.Energy()

	if err := gw.SwapModel(altSystem(t)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Migrate(); err != nil {
		t.Fatal(err)
	}
	if sess.Config() != cfgBefore {
		t.Fatalf("migrate reset the configuration: %s, had %s",
			sess.Config().Name(), cfgBefore.Name())
	}
	if sess.Energy() != energyBefore {
		t.Fatalf("migrate reset the energy ledger: %+v, had %+v", sess.Energy(), energyBefore)
	}
	// The migrated session keeps serving at its descended configuration.
	b := sampler.Sample(m, sess.Config(), clock, clock+1)
	if _, err := sess.Push(b); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSessionSnapshot(b *testing.B) {
	sys, _, err := adasense.TrainSystem(adasense.TrainingConfig{Windows: 600, Epochs: 10, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := adasense.NewService(sys)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := svc.OpenSession("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	sched, err := adasense.NewSchedule([]adasense.Segment{{Activity: adasense.Sit, Duration: 10}})
	if err != nil {
		b.Fatal(err)
	}
	m := adasense.NewMotion(sched, 71)
	batch := adasense.NewSampler(adasense.DefaultNoiseModel(), 72).Sample(m, sess.Config(), 0, 1.5)
	if _, err := sess.Push(batch); err != nil {
		b.Fatal(err)
	}
	var st adasense.SessionState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.SnapshotInto(&st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionRestore(b *testing.B) {
	sys, _, err := adasense.TrainSystem(adasense.TrainingConfig{Windows: 600, Epochs: 10, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := adasense.NewService(sys)
	if err != nil {
		b.Fatal(err)
	}
	donor, err := svc.OpenSession("donor")
	if err != nil {
		b.Fatal(err)
	}
	defer donor.Close()
	sched, err := adasense.NewSchedule([]adasense.Segment{{Activity: adasense.Sit, Duration: 10}})
	if err != nil {
		b.Fatal(err)
	}
	m := adasense.NewMotion(sched, 73)
	batch := adasense.NewSampler(adasense.DefaultNoiseModel(), 74).Sample(m, donor.Config(), 0, 1.5)
	if _, err := donor.Push(batch); err != nil {
		b.Fatal(err)
	}
	st, err := donor.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	target, err := svc.OpenSession("target")
	if err != nil {
		b.Fatal(err)
	}
	defer target.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := target.Restore(st); err != nil {
			b.Fatal(err)
		}
	}
}
