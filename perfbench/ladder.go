package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"adasense"
	"adasense/internal/core"
	"adasense/internal/dataset"
	"adasense/internal/features"
	"adasense/internal/nn"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/stream"
	"adasense/internal/synth"
)

// ladderSeq is one device's batches in push order, starting on a fresh
// session.
type ladderSeq struct {
	id      string
	batches []*sensor.Batch
}

// streamLadderCap bounds how many of each stream_push device's live
// pushes the ladder replays.
const streamLadderCap = 5000

// streamLadderSeqs rebuilds the batches each stream_push device had
// acknowledged, in order, decoded from the frames it sent.
func streamLadderSeqs(devs []*streamDev) ([]ladderSeq, error) {
	var seqs []ladderSeq
	for _, sd := range devs {
		decoded := make(map[[2]uint32]*sensor.Batch)
		seq := ladderSeq{id: sd.dev.id}
		for _, p := range sd.pushes {
			if len(seq.batches) == streamLadderCap {
				break
			}
			if !p.ok {
				continue
			}
			key := [2]uint32{p.slot, uint32(p.state)}
			b := decoded[key]
			if b == nil {
				f, _, err := stream.DecodeFrame(sd.frames[p.slot][p.state])
				if err != nil {
					return nil, err
				}
				var m stream.BatchMsg
				if err := m.Decode(f.Payload); err != nil {
					return nil, err
				}
				b = &sensor.Batch{Config: m.Config, StartAt: m.StartAt, X: m.X, Y: m.Y, Z: m.Z}
				decoded[key] = b
			}
			seq.batches = append(seq.batches, b)
		}
		seqs = append(seqs, seq)
	}
	return seqs, nil
}

// The ladder replays the whole live sequence, up to httpLadderCap pushes,
// of every httpLadderEvery-th device of each http_fleet connection: whole
// sequences keep the mix of Pareto states the live sessions settled into,
// and the stride samples every cohort of the fleet in proportion.
const (
	httpLadderEvery = 8
	httpLadderCap   = 512
)

// httpLadderSeqs rebuilds the batches the sampled http_fleet devices had
// answered, in order.
func httpLadderSeqs(conns []*httpConn) []ladderSeq {
	var seqs []ladderSeq
	for _, c := range conns {
		at := make(map[*httpDev]int)
		for j := 0; j < len(c.devs); j += httpLadderEvery {
			at[c.devs[j]] = len(seqs)
			seqs = append(seqs, ladderSeq{id: c.devs[j].dev.id})
		}
		for _, p := range c.pushes {
			i, ok := at[p.dev]
			if ok && p.status == http.StatusOK && len(seqs[i].batches) < httpLadderCap {
				seqs[i].batches = append(seqs[i].batches, p.dev.batches[p.slot][p.state])
			}
		}
	}
	return seqs
}

// pushFn pushes one batch through one layer's public call.
type pushFn func(b *sensor.Batch, tr *tracer, op int32) ([]adasense.Event, error)

// rungDef builds a fresh per-sequence pushFn for one layer; done releases
// whatever the pass opened.
type rungDef struct {
	name string
	mk   func(id string) (pushFn, error)
	done func()
}

// ladderResult is the budget one ladder measured.
type ladderResult struct {
	stats           map[string]*spanStat
	allocs          map[string]float64 // per push, from the untraced pass
	ticksPerPush    float64
	switchesPerPush float64
	overheadPct     float64
	pushes, seqs    int
}

func (l *ladderResult) mean(name string) float64 {
	if st := l.stats[name]; st != nil {
		return st.meanUS()
	}
	return math.NaN()
}

func (l *ladderResult) p50(name string) float64 {
	if st := l.stats[name]; st != nil {
		return st.p50US()
	}
	return math.NaN()
}

// stageRung maps a live pipeline stage to the rung span that replays it.
var stageRung = map[string]string{"decode": "stream.decode_batch", "extract": "features.extract", "classify": "nn.forward"}

// gapPct compares the ladder's per-stage means to the live stage means:
// (ladder - live) / live over the summed stages, in percent.
func (l *ladderResult) gapPct(m [2]map[string]float64, stages []string) float64 {
	var lad, live float64
	for _, st := range stages {
		lad += l.mean(stageRung[st])
		live += stageMeanUS(m, st)
	}
	return 100 * (lad - live) / live
}

// rungs are the ladder's layers, outermost first. Every layer replays
// the same sequences on its own fresh state, so all of them must emit
// identical events.
func rungs(sys *adasense.System) ([]rungDef, error) {
	gw, err := adasense.NewGateway(sys)
	if err != nil {
		return nil, err
	}
	svc, err := adasense.NewService(sys)
	if err != nil {
		return nil, err
	}
	pipe, err := sys.NewPipeline()
	if err != nil {
		return nil, err
	}
	var gwIDs []string
	var sessions []*adasense.Session
	return []rungDef{
		{"gateway.push", func(id string) (pushFn, error) {
			s, err := gw.Open(id)
			if err != nil {
				return nil, err
			}
			gwIDs = append(gwIDs, id)
			return func(b *sensor.Batch, tr *tracer, op int32) ([]adasense.Event, error) {
				sp := tr.begin("gateway.push", -1, op)
				ev, err := s.Push(b)
				tr.end(sp)
				return ev, err
			}, nil
		}, func() {
			for _, id := range gwIDs {
				gw.CloseSession(id)
			}
			gwIDs = gwIDs[:0]
		}},
		{"service.push", func(id string) (pushFn, error) {
			s, err := svc.OpenSession(id)
			if err != nil {
				return nil, err
			}
			sessions = append(sessions, s)
			return func(b *sensor.Batch, tr *tracer, op int32) ([]adasense.Event, error) {
				sp := tr.begin("service.push", -1, op)
				ev, err := s.Push(b)
				tr.end(sp)
				return ev, err
			}, nil
		}, func() {
			for _, s := range sessions {
				s.Close()
			}
			sessions = sessions[:0]
		}},
		{"core.engine_push", func(string) (pushFn, error) {
			eng, err := core.NewEngine(pipe, adasense.NewSPOTWithConfidence(10), 2, 1)
			if err != nil {
				return nil, err
			}
			return func(b *sensor.Batch, tr *tracer, op int32) ([]adasense.Event, error) {
				sp := tr.begin("core.engine_push", -1, op)
				ev, err := eng.Push(b)
				tr.end(sp)
				return ev, err
			}, nil
		}, func() {}},
		{"core.composed_push", func(string) (pushFn, error) {
			return newComposed(pipe.Extractor(), pipe.Network())
		}, func() {}},
	}, nil
}

// composed is Engine.Push taken apart into the public calls it makes:
// SlidingWindow.Push, Extractor.Extract, Network.Forward and SPOT.Observe.
type composed struct {
	win         *core.SlidingWindow
	ext         *features.Extractor
	net         *nn.Network
	ctl         *adasense.SPOT
	hop, filled int
	feat, probs []float64
	chunk       sensor.Batch
}

func newComposed(ext *features.Extractor, net *nn.Network) (pushFn, error) {
	ctl := adasense.NewSPOTWithConfidence(10)
	win, err := core.NewSlidingWindow(ctl.Config(), 2)
	if err != nil {
		return nil, err
	}
	c := &composed{win: win, ext: ext, net: net, ctl: ctl, hop: ctl.Config().BatchSize(1)}
	return c.push, nil
}

func (c *composed) push(b *sensor.Batch, tr *tracer, op int32) ([]adasense.Event, error) {
	root := tr.begin("core.composed_push", -1, op)
	defer tr.end(root)
	if b.Config != c.win.Config() {
		return nil, fmt.Errorf("pushed %s batch while the window holds %s", b.Config.Name(), c.win.Config().Name())
	}
	var events []adasense.Event
	for off := 0; off < b.Len(); {
		take := min(b.Len()-off, c.hop-c.filled)
		c.chunk = sensor.Batch{Config: b.Config, X: b.X[off : off+take], Y: b.Y[off : off+take], Z: b.Z[off : off+take]}
		sp := tr.begin("core.window_push", root, op)
		c.win.Push(&c.chunk)
		tr.end(sp)
		c.filled += take
		off += take
		if c.filled < c.hop {
			break
		}
		c.filled = 0
		w := c.win.Window()
		sp = tr.begin("features.extract", root, op)
		c.feat = c.ext.Extract(w, c.feat)
		tr.end(sp)
		sp = tr.begin("nn.forward", root, op)
		c.probs = c.net.Forward(c.feat, c.probs)
		tr.end(sp)
		best := 0
		for i, v := range c.probs {
			if v > c.probs[best] {
				best = i
			}
		}
		sp = tr.begin("core.spot_observe", root, op)
		c.ctl.Observe(synth.Activity(best), c.probs[best])
		tr.end(sp)
		next := c.ctl.Config()
		changed := next != c.win.Config()
		events = append(events, adasense.Event{
			Classification: adasense.Classification{Activity: synth.Activity(best), Confidence: c.probs[best]},
			Config:         next, ConfigChanged: changed,
		})
		if changed {
			c.win.Reset(next)
			c.hop = next.BatchSize(1)
			break
		}
	}
	c.chunk = sensor.Batch{}
	return events, nil
}

// runLadder replays seqs through every rung plus the ADSP codec: a
// warm-up pass, an untraced pass for wall time and allocations, and a
// traced pass for the spans. It fails when any rung's events differ from
// the gateway rung's.
func runLadder(sys *adasense.System, seqs []ladderSeq, tr *tracer) (*ladderResult, error) {
	defs, err := rungs(sys)
	if err != nil {
		return nil, err
	}
	res := &ladderResult{allocs: make(map[string]float64), seqs: len(seqs)}
	for _, s := range seqs {
		res.pushes += len(s.batches)
	}
	var ref []evRec
	var untraced, traced time.Duration
	from := len(tr.spans)
	for pass := 0; pass < 3; pass++ {
		ptr := (*tracer)(nil)
		if pass == 2 {
			ptr = tr
		}
		for ri, def := range defs {
			fns := make([]pushFn, len(seqs))
			for i, s := range seqs {
				if fns[i], err = def.mk(s.id); err != nil {
					return nil, err
				}
			}
			got := make([]evRec, 0, 3*res.pushes) // a push completes at most two ticks
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			op := int32(0)
			for i, s := range seqs {
				for _, b := range s.batches {
					ev, err := fns[i](b, ptr, op)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", def.name, err)
					}
					got = toEvRecs(got, ev)
					op++
				}
			}
			wall := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			def.done()
			switch pass {
			case 1:
				untraced += wall
				res.allocs[def.name] = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.pushes)
			case 2:
				traced += wall
			}
			if ri == 0 && pass == 0 {
				ref = got
			} else if !sameRecs(got, ref) {
				return nil, fmt.Errorf("%s emits other events than gateway.push on the same batches", def.name)
			}
			if ri == 0 {
				res.ticksPerPush = float64(len(got)) / float64(res.pushes)
				switches := 0
				for _, r := range got {
					if r.changed {
						switches++
					}
				}
				res.switchesPerPush = float64(switches) / float64(res.pushes)
			}
		}
		// The ADSP codec: encode each batch into a frame, decode it back.
		t0 := time.Now()
		var buf []byte
		var m stream.BatchMsg
		op := int32(0)
		for _, s := range seqs {
			for _, b := range s.batches {
				sp := ptr.begin("stream.encode", -1, op)
				msg := stream.BatchMsg{Seq: uint64(op), Config: b.Config, StartAt: b.StartAt, X: b.X, Y: b.Y, Z: b.Z}
				buf = stream.BeginFrame(buf[:0], stream.FrameBatch)
				buf = stream.AppendBatch(buf, &msg)
				buf = stream.EndFrame(buf, 0)
				ptr.end(sp)
				// The live decode stage times BatchMsg.Decode only, after
				// the reader has checked the envelope; its rung is
				// stream.decode_batch.
				sp = ptr.begin("stream.decode_frame", -1, op)
				f, _, err := stream.DecodeFrame(buf)
				ptr.end(sp)
				if err == nil {
					sp = ptr.begin("stream.decode_batch", -1, op)
					err = m.Decode(f.Payload)
					ptr.end(sp)
				}
				if err != nil {
					return nil, fmt.Errorf("stream codec: %w", err)
				}
				op++
			}
		}
		switch pass {
		case 1:
			untraced += time.Since(t0)
		case 2:
			traced += time.Since(t0)
		}
	}
	res.stats = tr.stats(from)
	res.overheadPct = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	return res, nil
}

func sameRecs(a, b []evRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probeResult is the registry and telemetry cost at http_fleet's size.
type probeResult struct {
	openCloseUS, lookupUS              float64
	writeMetricsUS, writeMetricsAllocs float64
}

const (
	openCloseProbes = 2000
	lookupProbes    = 200 // spans, each over every one of the 256 sessions
	metricsProbes   = 200
)

// runProbes opens every http_fleet session on an in-process gateway,
// pushes one batch into each, and times Open+CloseSession of one more
// device, Lookup, and WriteMetrics.
func runProbes(sys *adasense.System, devs []*httpDev, tr *tracer) (*probeResult, error) {
	gw, err := adasense.NewGateway(sys)
	if err != nil {
		return nil, err
	}
	for _, hd := range devs {
		s, err := gw.Open(hd.dev.id)
		if err != nil {
			return nil, err
		}
		if _, err := s.Push(hd.batches[0][hd.initState]); err != nil {
			return nil, err
		}
	}
	from := len(tr.spans)
	for i := 0; i < openCloseProbes; i++ {
		sp := tr.begin("gateway.open_close", -1, int32(i))
		_, err := gw.Open("probe")
		if err == nil {
			err = gw.CloseSession("probe")
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	// One Lookup is a few tens of ns, close to a span's own cost, so
	// each span covers one lookup of every session.
	for i := 0; i < lookupProbes; i++ {
		sp := tr.begin("gateway.lookup", -1, int32(i))
		for _, hd := range devs {
			if _, ok := gw.Lookup(hd.dev.id); !ok {
				tr.end(sp)
				return nil, fmt.Errorf("lookup of open session %s failed", hd.dev.id)
			}
		}
		tr.end(sp)
	}
	var buf bytes.Buffer
	for i := 0; i < metricsProbes; i++ {
		buf.Reset()
		sp := tr.begin("telemetry.write_metrics", -1, int32(i))
		err := gw.WriteMetrics(&buf)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < metricsProbes; i++ {
		buf.Reset()
		gw.WriteMetrics(&buf)
	}
	runtime.ReadMemStats(&ms1)
	st := tr.stats(from)
	return &probeResult{
		openCloseUS:        st["gateway.open_close"].meanUS(),
		lookupUS:           st["gateway.lookup"].meanUS() / float64(len(devs)),
		writeMetricsUS:     st["telemetry.write_metrics"].meanUS(),
		writeMetricsAllocs: float64(ms1.Mallocs-ms0.Mallocs) / metricsProbes,
	}, nil
}

const trainEpochRuns = 5

// trainEpochs times single epochs of nn.Train on a quick-lab-sized corpus
// and returns the mean epoch in ms.
func trainEpochs(seed uint64, tr *tracer) (float64, error) {
	r := rng.New(seed)
	corpus, err := dataset.Generate(dataset.GenSpec{Windows: quickLab.TrainWindows}, r.Split(1))
	if err != nil {
		return 0, err
	}
	X, Y := corpus.XY()
	net := nn.New(corpus.FeatureSize, 32, synth.NumActivities, r.Split(2))
	from := len(tr.spans)
	for i := 0; i < trainEpochRuns; i++ {
		sp := tr.begin("nn.train_epoch", -1, int32(i))
		_, err := nn.Train(net, X, Y, nn.TrainConfig{Epochs: 1, LabelSmoothing: 0.1}, r.Split(uint64(3+i)))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return tr.stats(from)["nn.train_epoch"].meanUS() / 1e3, nil
}
