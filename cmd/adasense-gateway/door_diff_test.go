package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"testing"

	"adasense"
	"adasense/internal/stream"
)

// doorEvent is one classification event in a door-neutral form: the
// HTTP door names activities and configs, ADSP carries their codes.
type doorEvent struct {
	Activity      string
	Confidence    float64
	Config        string
	ConfigChanged bool
}

// doorClient pushes batches for one device through one ingest door and
// reports the events plus the directed config each push answered with.
type doorClient interface {
	config() adasense.Config
	push(b *adasense.Batch) ([]doorEvent, adasense.Config, error)
}

type httpDoor struct {
	t            *testing.T
	base, device string
	cfg          adasense.Config
}

func (d *httpDoor) config() adasense.Config { return d.cfg }

func (d *httpDoor) push(b *adasense.Batch) ([]doorEvent, adasense.Config, error) {
	var resp pushResponse
	body := batchJSON{Config: b.Config.Name(), StartAt: b.StartAt, X: b.X, Y: b.Y, Z: b.Z}
	if st := do(d.t, http.MethodPost, d.base+"/v1/sessions/"+d.device+"/push", body, &resp); st != http.StatusOK {
		return nil, adasense.Config{}, fmt.Errorf("http push = %d", st)
	}
	cfg, err := adasense.ParseConfig(resp.Config)
	if err != nil {
		return nil, adasense.Config{}, err
	}
	evs := make([]doorEvent, len(resp.Events))
	for i, ev := range resp.Events {
		evs[i] = doorEvent{ev.Activity, ev.Confidence, ev.Config, ev.ConfigChanged}
	}
	d.cfg = cfg
	return evs, cfg, nil
}

type streamDoor struct{ c *stream.Client }

func (d *streamDoor) config() adasense.Config { return d.c.Config() }

func (d *streamDoor) push(b *adasense.Batch) ([]doorEvent, adasense.Config, error) {
	ack, err := d.c.Push(b)
	if err != nil {
		return nil, adasense.Config{}, err
	}
	evs := make([]doorEvent, len(ack.Events))
	for i, ev := range ack.Events {
		evs[i] = doorEvent{adasense.Activity(ev.Activity).String(), ev.Confidence, ev.Config.Name(), ev.ConfigChanged}
	}
	return evs, ack.Config, nil
}

type namedDoor struct {
	name, device string
	d            doorClient
}

// TestDoorsAgree is the cross-door differential test: the same seeded
// device trajectory pushed through HTTP/JSON, ADSP over raw TCP and
// ADSP over the HTTP upgrade — each a fresh device on one gateway running the
// adaptive SPOT controller — must produce identical events and an
// identical directed config after every push. Each door samples its
// next batch at the config it was last directed to, so one divergence
// would also fork every batch after it. At the end the three sessions
// must hold bit-identical energy ledgers, and the gateway's counters
// must account for every push and every event the doors returned.
// Halfway through, every door is offered batches the library refuses
// (see refuseBadBatches); the counters then also show that no refused
// batch was counted.
func TestDoorsAgree(t *testing.T) {
	const pushes = 90
	ts, gw, tcp := newDoorServer(t, adasense.WithServiceOptions(
		adasense.WithControllerFactory(func() adasense.Controller { return adasense.NewSPOTWithConfidence(10) })))

	var opened sessionJSON
	if st := do(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]string{"id": "diff-http"}, &opened); st != http.StatusCreated {
		t.Fatalf("open = %d", st)
	}
	httpCfg, err := adasense.ParseConfig(opened.Config)
	if err != nil {
		t.Fatal(err)
	}
	doors := []namedDoor{
		{"http", "diff-http", &httpDoor{t: t, base: ts.URL, device: "diff-http", cfg: httpCfg}},
		{"adsp-tcp", "diff-tcp", &streamDoor{dialDoor(t, tcp, "diff-tcp")}},
		{"adsp-upgrade", "diff-upgrade", &streamDoor{dialDoor(t, ts.URL, "diff-upgrade")}},
	}

	sched, err := adasense.NewSchedule([]adasense.Segment{
		{Activity: adasense.Sit, Duration: 25},
		{Activity: adasense.Walk, Duration: 20},
		{Activity: adasense.Stand, Duration: 25},
		{Activity: adasense.Upstairs, Duration: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	type source struct {
		m *adasense.Motion
		s *adasense.Sampler
	}
	sources := make([]source, len(doors))
	for i := range sources {
		sources[i] = source{adasense.NewMotion(sched, 71), adasense.NewSampler(adasense.DefaultNoiseModel(), 72)}
	}

	for _, d := range doors[1:] {
		if d.d.config() != httpCfg {
			t.Fatalf("%s starts at %v, http at %v", d.name, d.d.config(), httpCfg)
		}
	}
	switches, events := 0, 0
	for p := 0; p < pushes; p++ {
		if p == pushes/2 {
			refuseBadBatches(t, gw, doors)
		}
		var wantEvs []doorEvent
		var wantCfg adasense.Config
		for i, d := range doors {
			b := sources[i].s.Sample(sources[i].m, d.d.config(), float64(p), float64(p+1))
			evs, cfg, err := d.d.push(b)
			if err != nil {
				t.Fatalf("push %d via %s: %v", p, d.name, err)
			}
			events += len(evs)
			if i == 0 {
				wantEvs, wantCfg = evs, cfg
				for _, ev := range evs {
					if ev.ConfigChanged {
						switches++
					}
				}
				continue
			}
			if !reflect.DeepEqual(evs, wantEvs) {
				t.Fatalf("push %d: %s events %+v, http %+v", p, d.name, evs, wantEvs)
			}
			if cfg != wantCfg {
				t.Fatalf("push %d: %s directed %v, http %v", p, d.name, cfg, wantCfg)
			}
		}
	}
	if switches == 0 {
		t.Fatal("the trajectory never switched configs; the differential covers no adaptation")
	}

	var want adasense.EnergyEstimate
	for i, d := range doors {
		gs, ok := gw.Lookup(d.device)
		if !ok {
			t.Fatalf("%s session %q is gone", d.name, d.device)
		}
		e := gs.Energy()
		if i == 0 {
			want = e
			if e.ElapsedSec <= 0 || e.ChargeUC <= 0 {
				t.Fatalf("http ledger is empty: %+v", e)
			}
			continue
		}
		if math.Float64bits(e.ElapsedSec) != math.Float64bits(want.ElapsedSec) ||
			math.Float64bits(e.ChargeUC) != math.Float64bits(want.ChargeUC) {
			t.Fatalf("%s energy %+v, http %+v", d.name, e, want)
		}
	}
	s := gw.Stats()
	if s.BatchesPushed != 3*pushes {
		t.Fatalf("batches pushed = %d, want %d", s.BatchesPushed, 3*pushes)
	}
	if s.EventsEmitted != uint64(events) {
		t.Fatalf("events emitted = %d, the doors returned %d", s.EventsEmitted, events)
	}
}

// refuseBadBatches is TestDoorsAgree's rejection row. Each door is
// offered batches the library's batch check refuses: a reading of
// 1e300 through every door, a ragged batch through HTTP/JSON (the ADSP
// client cannot encode one), and NaN and -Inf readings through ADSP
// (JSON cannot spell them). Every door must refuse each batch — HTTP
// with 400, ADSP with a bad-batch error frame on a connection that
// keeps serving — and leave the session's ADSS snapshot bytes as they
// were.
func refuseBadBatches(t *testing.T, gw *adasense.Gateway, doors []namedDoor) {
	t.Helper()
	snapshot := func(device string) []byte {
		gs, ok := gw.Lookup(device)
		if !ok {
			t.Fatalf("session %q is gone", device)
		}
		st, err := gs.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := st.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sampler := adasense.NewSampler(adasense.DefaultNoiseModel(), 73)
	sched, err := adasense.NewSchedule([]adasense.Segment{{Activity: adasense.Walk, Duration: 5}})
	if err != nil {
		t.Fatal(err)
	}
	spoiled := func(cfg adasense.Config, spoil func(b *adasense.Batch)) *adasense.Batch {
		b := sampler.Sample(adasense.NewMotion(sched, 74), cfg, 0, 1)
		spoil(b)
		return b
	}
	huge := func(b *adasense.Batch) { b.X[3] = 1e300 }
	for _, d := range doors {
		spoils := map[string]func(*adasense.Batch){"a 1e300 reading": huge}
		var refused func(error) bool
		switch d.d.(type) {
		case *httpDoor:
			spoils["a short y axis"] = func(b *adasense.Batch) { b.Y = b.Y[:len(b.Y)-1] }
			refused = func(err error) bool { return err != nil && err.Error() == "http push = 400" }
		default:
			spoils["a NaN reading"] = func(b *adasense.Batch) { b.Y[0] = math.NaN() }
			spoils["a -Inf reading"] = func(b *adasense.Batch) { b.Z[len(b.Z)-1] = math.Inf(-1) }
			refused = func(err error) bool {
				var se *stream.ServerError
				return errors.As(err, &se) && se.Code == stream.CodeBadBatch
			}
		}
		before := snapshot(d.device)
		for what, spoil := range spoils {
			if _, _, err := d.d.push(spoiled(d.d.config(), spoil)); !refused(err) {
				t.Errorf("%s accepted a batch with %s: err = %v", d.name, what, err)
			}
		}
		if after := snapshot(d.device); !bytes.Equal(after, before) {
			t.Errorf("%s: refused batches changed the session snapshot", d.name)
		}
	}
}
