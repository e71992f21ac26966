package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced call: spans of one push share op, and a span's
// parent is the span whose call made it (-1 for none).
type span struct {
	name       string
	parent, op int32
	start, end int64 // ns since the tracer's origin
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced passes run the same code.
// It is not safe for concurrent use.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: int64(time.Since(t.origin))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.origin))
}

// spanStat summarises every span of one name.
type spanStat struct {
	durs []int64 // sorted after stats
	self int64   // total duration minus the time child spans cover
}

func (s *spanStat) meanUS() float64 {
	var total int64
	for _, d := range s.durs {
		total += d
	}
	return float64(total) / float64(len(s.durs)) / 1e3
}

func (s *spanStat) p50US() float64  { return quantile(s.durs, 0.5) / 1e3 }
func (s *spanStat) selfUS() float64 { return float64(s.self) / float64(len(s.durs)) / 1e3 }

// stats groups the spans recorded since from by name, with self times.
func (t *tracer) stats(from int) map[string]*spanStat {
	cover := make(map[int32]int64)
	for _, s := range t.spans[from:] {
		if s.parent >= 0 {
			cover[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range t.spans[from:] {
		st := out[s.name]
		if st == nil {
			st = &spanStat{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.durs = append(st.durs, d)
		st.self += d - cover[int32(from+i)]
	}
	for _, st := range out {
		sortInt64(st.durs)
	}
	return out
}

// write saves every span as CSV: id,name,parent,op,start_ns,end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,parent,op,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.name, s.parent, s.op, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// stageMeanUS is the mean of one live pipeline stage over the timed
// phase, from adasense_stage_duration_seconds scraped before and after.
func stageMeanUS(m [2]map[string]float64, stage string) float64 {
	key := `adasense_stage_duration_seconds_%s{stage="` + stage + `"}`
	return 1e6 * delta(m[0], m[1], fmt.Sprintf(key, "sum")) / delta(m[0], m[1], fmt.Sprintf(key, "count"))
}

// runTraced measures the per-layer budget. Every traced run measures
// every layer: the stream_push and http_fleet phases run live (untraced)
// for the doors' latency and the gateway's own stage histograms, the
// ladder replays their inputs one public call per rung, and the quick
// experiment set runs with a span per experiment. Rungs both serving
// workloads share report the named workload's inputs (paper_suite, which
// serves nothing, reports http_fleet's cohort mix).
func runTraced(e *env, workload string) (*result, error) {
	tr := newTracer()
	res := &result{tally: newTally(), correct: true}
	fail := func(what string, err error) {
		fmt.Fprintf(e.out, "%s correctness gate FAILED: %v\n", what, err)
		res.correct = false
	}
	streamTr, httpTr := (*tracer)(nil), tr
	if workload == "stream_push" {
		streamTr, httpTr = tr, nil
	}
	sampleFrom := len(tr.spans)

	// Live stream_push phase.
	sdevs, err := buildStreamDevs(e.seed, streamTr)
	if err != nil {
		return nil, err
	}
	sampleStats := tr.stats(sampleFrom)
	sr, err := servingPhase(e, &streamClient{sdevs}, e.dur, 1, true)
	if err != nil {
		return nil, err
	}
	res.tally.merge(sr.tally)
	if err := verifyStream(e.sys, sdevs); err != nil {
		fail("stream_push", err)
	}

	// Live http_fleet phase.
	sampleFrom = len(tr.spans)
	hdevs, err := buildHTTPDevs(e.sys, e.seed, httpTr)
	if err != nil {
		return nil, err
	}
	if httpTr != nil {
		sampleStats = tr.stats(sampleFrom)
	}
	hc := &httpClient{devs: hdevs}
	hr, err := servingPhase(e, hc, e.dur, 1, true)
	if err != nil {
		return nil, err
	}
	res.tally.merge(hr.tally)
	if err := verifyHTTP(e.sys, hc.conns); err != nil {
		fail("http_fleet", err)
	}

	// The ladder over each serving workload's inputs.
	streamSeqs, err := streamLadderSeqs(sdevs)
	if err != nil {
		return nil, err
	}
	httpSeqs := httpLadderSeqs(hc.conns)
	ls, err := runLadder(e.sys, streamSeqs, tr)
	if err != nil {
		fail("ladder (stream_push inputs)", err)
	}
	lh, err := runLadder(e.sys, httpSeqs, tr)
	if err != nil {
		fail("ladder (http_fleet inputs)", err)
	}
	if ls == nil || lh == nil {
		return res, nil
	}
	own := lh
	if workload == "stream_push" {
		own = ls
	}

	// Registry and telemetry probes at http_fleet's session count.
	probes, err := runProbes(e.sys, hdevs, tr)
	if err != nil {
		return nil, err
	}
	trainMS, err := trainEpochs(e.seed, tr)
	if err != nil {
		return nil, err
	}

	// The quick experiment set, one span per experiment.
	expFrom := len(tr.spans)
	lab, _, err := newQuickLab(tr)
	if err != nil {
		return nil, err
	}
	suite, err := runSuite(lab, tr)
	if err != nil {
		return nil, err
	}
	res.tally.merge(suite.tally)
	if err := checkFidelity(suite.fidelity); err != nil {
		fail("paper_suite", err)
	}
	exp := tr.stats(expFrom)

	// Derived figures.
	streamStages := []string{"decode", "extract", "classify"}
	httpStages := []string{"extract", "classify"}
	res.add("stream.encode_us", own.mean("stream.encode"), "us")
	res.add("stream.decode_us", own.mean("stream.decode_frame")+own.mean("stream.decode_batch"), "us")
	res.add("stream.door_us", sr.stats.p50us-ls.p50("gateway.push"), "us")
	res.add("stream.admit_wait_us", stageMeanUS(sr.metrics, "admit"), "us")
	res.add("stream.coalesced_ratio", delta(sr.metrics[0], sr.metrics[1], "adasense_stream_batcher_coalesced_total")/
		delta(sr.metrics[0], sr.metrics[1], "adasense_stream_batcher_flushes_total"), "ratio")
	res.add("http.door_us", hr.stats.p50us-lh.p50("gateway.push"), "us")
	for _, rung := range []string{"gateway.push", "service.push", "core.engine_push"} {
		res.add(rung+"_us", own.mean(rung), "us")
		res.add(rung+"_allocs", own.allocs[rung], "count")
	}
	res.add("core.composed_push_us", own.mean("core.composed_push"), "us")
	res.add("core.composed_self_us", own.stats["core.composed_push"].selfUS(), "us")
	res.add("core.window_push_us", own.mean("core.window_push"), "us")
	res.add("features.extract_us", own.mean("features.extract"), "us")
	res.add("nn.forward_us", own.mean("nn.forward"), "us")
	res.add("core.spot_observe_us", own.mean("core.spot_observe"), "us")
	res.add("core.ticks_per_push", own.ticksPerPush, "count")
	res.add("core.switches_per_push", own.switchesPerPush, "count")
	res.add("gateway.open_close_us", probes.openCloseUS, "us")
	res.add("gateway.lookup_us", probes.lookupUS, "us")
	hits := delta(hc.pool[0], hc.pool[1], "adasense_pool_hits_total")
	misses := delta(hc.pool[0], hc.pool[1], "adasense_pool_misses_total")
	res.add("gateway.pool_hit_ratio", hits/(hits+misses), "ratio")
	res.add("telemetry.write_metrics_us", probes.writeMetricsUS, "us")
	res.add("telemetry.write_metrics_allocs", probes.writeMetricsAllocs, "count")
	res.add("sensor.sample_us", sampleStats["sensor.sample"].meanUS(), "us")
	res.add("nn.train_epoch_ms", trainMS, "ms")
	for name, st := range exp {
		res.add(name+"_s", st.meanUS()/1e6, "s")
	}
	res.add("ladder_gap_pct.stream_push", ls.gapPct(sr.metrics, streamStages), "%")
	res.add("ladder_gap_pct.http_fleet", lh.gapPct(hr.metrics, httpStages), "%")
	res.add("trace.overhead_pct", own.overheadPct, "%")

	fmt.Fprintf(e.out, "%s traced: ladder replayed %d pushes (%d sequences); live stream_push p50 %.2f us, http_fleet p50 %.2f us\n",
		workload, own.pushes, own.seqs, sr.stats.p50us, hr.stats.p50us)
	for _, side := range []struct {
		name   string
		l      *ladderResult
		m      [2]map[string]float64
		stages []string
	}{{"stream_push", ls, sr.metrics, streamStages}, {"http_fleet", lh, hr.metrics, httpStages}} {
		for _, st := range side.stages {
			fmt.Fprintf(e.out, "%s stage %-8s live %8.3f us  ladder %8.3f us\n",
				side.name, st, stageMeanUS(side.m, st), side.l.mean(stageRung[st]))
		}
	}
	if res.correct {
		fmt.Fprintf(e.out, "%s traced correctness gate passed: stream replay, http responses, every ladder rung and fig6 fidelity agree\n", workload)
	}
	res.tally.print(e.out, workload+" traced")
	if err := tr.write(filepath.Join(e.work, "spans.csv")); err != nil {
		return nil, err
	}
	return res, nil
}
