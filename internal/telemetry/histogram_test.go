package telemetry

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHistogramBucketPlacement(t *testing.T) {
	var h Histogram
	cases := []struct {
		d    time.Duration
		want int // bin index
	}{
		{0, 0},
		{-5 * time.Second, 0}, // negative clamps to zero
		{1, 0},
		{1024 * time.Nanosecond, 0},   // exactly the first bound
		{1025 * time.Nanosecond, 1},   // one past it
		{2048 * time.Nanosecond, 1},   // exactly the second bound
		{time.Millisecond, 10},        // 1e6 ns ≤ 2^20 ns = 1.048 ms
		{time.Second, 20},             // 1e9 ns ≤ 2^30 ns = 1.074 s
		{8 * time.Second, 23},         // ≤ 2^33 ns = 8.59 s, last finite bucket
		{9 * time.Second, NumBuckets}, // overflow bin
		{time.Hour, NumBuckets},
	}
	for i, c := range cases {
		before := h.Snapshot()
		h.Observe(c.d)
		after := h.Snapshot()
		if got := after.Bins[c.want] - before.Bins[c.want]; got != 1 {
			t.Errorf("case %d: Observe(%v) did not land in bin %d (snapshot %v)", i, c.d, c.want, after.Bins)
		}
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", s.Count, len(cases))
	}
}

func TestHistogramSumAndCount(t *testing.T) {
	var h Histogram
	h.Observe(250 * time.Millisecond)
	h.Observe(750 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.SumSeconds < 0.999 || s.SumSeconds > 1.001 {
		t.Fatalf("sum = %v s, want ~1.0", s.SumSeconds)
	}
}

func TestBucketBoundsLayout(t *testing.T) {
	b := bucketBounds[:]
	if len(b) != NumBuckets {
		t.Fatalf("got %d bounds, want %d", len(b), NumBuckets)
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Fatalf("bounds not log2-spaced at %d: %v then %v", i, b[i-1], b[i])
		}
	}
	if b[0] != 1024e-9 {
		t.Fatalf("first bound = %v, want 1.024e-06", b[0])
	}
}

func TestLatenciesSnapshotCoversAllSeries(t *testing.T) {
	var l Latencies
	l.ObserveRoute(RoutePush, time.Millisecond)
	l.ObserveStage(StageClassify, time.Microsecond)
	s := l.Snapshot()
	if len(s.Routes) != int(NumRoutes) {
		t.Fatalf("snapshot has %d routes, want %d", len(s.Routes), NumRoutes)
	}
	if len(s.Stages) != int(NumStages) {
		t.Fatalf("snapshot has %d stages, want %d", len(s.Stages), NumStages)
	}
	if s.Routes["push"].Count != 1 {
		t.Errorf("push route count = %d, want 1", s.Routes["push"].Count)
	}
	if s.Stages["classify"].Count != 1 {
		t.Errorf("classify stage count = %d, want 1", s.Stages["classify"].Count)
	}
	// Untouched series are still present, at zero.
	if got, ok := s.Routes["migrate"]; !ok || got.Count != 0 {
		t.Errorf("migrate route missing or non-zero: %v %v", ok, got.Count)
	}
}

// validateHistogramText checks one encoded histogram family against the
// exposition-format grammar: HELP/TYPE preamble, per-series cumulative
// non-decreasing buckets ending in a +Inf bucket equal to _count, and a
// _sum/_count pair per series.
func validateHistogramText(t *testing.T, text, name string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("histogram %q: too few lines:\n%s", name, text)
	}
	if want := "# HELP " + name + " "; !strings.HasPrefix(lines[0], want) {
		t.Fatalf("line 1 = %q, want prefix %q", lines[0], want)
	}
	if want := "# TYPE " + name + " histogram"; lines[1] != want {
		t.Fatalf("line 2 = %q, want %q", lines[1], want)
	}
	bucketRe := regexp.MustCompile(`^` + regexp.QuoteMeta(name) + `_bucket\{([a-zA-Z_][a-zA-Z0-9_]*="[^"]*",)?le="([^"]+)"\} (\d+)$`)
	sumRe := regexp.MustCompile(`^` + regexp.QuoteMeta(name) + `_sum(\{[^}]*\})? ([0-9.eE+-]+|NaN)$`)
	countRe := regexp.MustCompile(`^` + regexp.QuoteMeta(name) + `_count(\{[^}]*\})? (\d+)$`)

	var (
		prevCum  uint64
		prevLe   float64
		sawInf   bool
		infCount uint64
		series   int
	)
	resetSeries := func() { prevCum = 0; prevLe = -1; sawInf = false }
	resetSeries()
	for _, line := range lines[2:] {
		switch {
		case bucketRe.MatchString(line):
			m := bucketRe.FindStringSubmatch(line)
			cum, err := strconv.ParseUint(m[3], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value in %q: %v", line, err)
			}
			if cum < prevCum {
				t.Fatalf("bucket not cumulative: %q after cum=%d", line, prevCum)
			}
			if m[2] == "+Inf" {
				sawInf, infCount = true, cum
			} else {
				le, err := strconv.ParseFloat(m[2], 64)
				if err != nil {
					t.Fatalf("bad le in %q: %v", line, err)
				}
				if sawInf {
					t.Fatalf("finite bucket after +Inf: %q", line)
				}
				if le <= prevLe {
					t.Fatalf("le bounds not ascending: %v after %v", le, prevLe)
				}
				prevLe = le
			}
			prevCum = cum
		case sumRe.MatchString(line):
			if !sawInf {
				t.Fatalf("_sum before +Inf bucket: %q", line)
			}
		case countRe.MatchString(line):
			m := countRe.FindStringSubmatch(line)
			count, _ := strconv.ParseUint(m[2], 10, 64)
			if count != infCount {
				t.Fatalf("_count %d != +Inf bucket %d", count, infCount)
			}
			series++
			resetSeries()
		default:
			t.Fatalf("line matches no histogram sample shape: %q", line)
		}
	}
	if series == 0 {
		t.Fatalf("no complete series (bucket.. +Inf, _sum, _count) found in:\n%s", text)
	}
}

func TestEncoderHistogramGrammar(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Second)
	h.Observe(time.Hour) // overflow → +Inf only
	var empty Histogram

	var b strings.Builder
	e := NewEncoder(&b)
	e.Histogram("adasense_request_duration_seconds", "Request latency by route.", "route",
		[]HistogramSeries{
			{LabelValue: "push", H: h.Snapshot()},
			{LabelValue: "open", H: empty.Snapshot()},
		})
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	validateHistogramText(t, text, "adasense_request_duration_seconds")

	// The +Inf bucket carries the overflow observation.
	if !strings.Contains(text, `route="push",le="+Inf"} 4`) {
		t.Errorf("+Inf bucket should count all 4 observations:\n%s", text)
	}
	// An untouched series still emits its full layout at zero.
	if !strings.Contains(text, `route="open",le="+Inf"} 0`) {
		t.Errorf("empty series missing zero +Inf bucket:\n%s", text)
	}
	wantBuckets := (NumBuckets + 1) * 2 // finite + +Inf, two series
	if got := strings.Count(text, "_bucket{"); got != wantBuckets {
		t.Errorf("got %d bucket lines, want %d", got, wantBuckets)
	}
	// One HELP/TYPE pair for the whole family.
	if got := strings.Count(text, "# TYPE"); got != 1 {
		t.Errorf("got %d TYPE lines, want 1", got)
	}
}

func TestEncoderGaugeWithLabels(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.GaugeWith("adasense_build_info", "Build metadata.", []Label{
		{Name: "version", Value: `v1.2.3"quoted\back` + "\nline"},
		{Name: "goversion", Value: "go1.23"},
	}, 1)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `adasense_build_info{version="v1.2.3\"quoted\\back\nline",goversion="go1.23"} 1` + "\n"
	if !strings.HasSuffix(got, want) {
		t.Fatalf("sample line mismatch:\ngot  %q\nwant suffix %q", got, want)
	}
	if !strings.Contains(got, "# TYPE adasense_build_info gauge") {
		t.Fatalf("missing TYPE line:\n%s", got)
	}
}

// TestTelemetryAllocs pins the instruments that sit on the serving hot
// path (an Observe and a few counter adds per request) at zero
// allocations.
func TestTelemetryAllocs(t *testing.T) {
	var h Histogram
	var l Latencies
	var c Counters
	cases := []struct {
		name string
		fn   func()
	}{
		{"HistogramObserve", func() { h.Observe(3 * time.Microsecond) }},
		{"LatenciesObserveRoute", func() { l.ObserveRoute(RoutePush, 3*time.Microsecond) }},
		{"CounterAdd", func() {
			c.BatchesPushed.Add(1)
			c.EventsEmitted.Add(1)
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

func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Snapshot().Count != uint64(b.N) {
		b.Fatal("lost observations")
	}
}

func BenchmarkTelemetryLatenciesObserveRoute(b *testing.B) {
	var l Latencies
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.ObserveRoute(RoutePush, time.Duration(i))
	}
}

func ExampleEncoder_Histogram() {
	var h Histogram
	h.Observe(2 * time.Microsecond)
	var b strings.Builder
	e := NewEncoder(&b)
	e.Histogram("demo_seconds", "Demo.", "route", []HistogramSeries{{LabelValue: "push", H: h.Snapshot()}})
	for _, line := range strings.Split(b.String(), "\n")[:4] {
		fmt.Println(line)
	}
	// Output:
	// # HELP demo_seconds Demo.
	// # TYPE demo_seconds histogram
	// demo_seconds_bucket{route="push",le="1.024e-06"} 0
	// demo_seconds_bucket{route="push",le="2.048e-06"} 1
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	var h Histogram
	// 100 observations spread uniformly inside one known bucket: bucket
	// for 3 µs spans (2.048 µs, 4.096 µs].
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Microsecond)
	}
	s := h.Snapshot()
	lo, hi := 2048e-9, 4096e-9
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		got := s.Quantile(q)
		if got < lo || got > hi {
			t.Fatalf("Quantile(%v) = %v, want within (%v, %v]", q, got, lo, hi)
		}
	}
	if p1, p99 := s.Quantile(0.01), s.Quantile(0.99); p1 >= p99 {
		t.Fatalf("quantiles not monotone within bucket: p1=%v p99=%v", p1, p99)
	}
}

func TestHistogramSnapshotQuantileAcrossBuckets(t *testing.T) {
	var h Histogram
	// 90 fast observations and 10 slow ones: p50 must land in the fast
	// bucket, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 > 10e-6 {
		t.Fatalf("p50 = %v, want in the microsecond range", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 1e-3 {
		t.Fatalf("p99 = %v, want in the millisecond range", p99)
	}
	if s.Quantile(0.5) > s.Quantile(0.95) || s.Quantile(0.95) > s.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}
}

func TestHistogramSnapshotQuantileEdges(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty snapshot Quantile = %v, want 0", got)
	}
	var h Histogram
	h.Observe(time.Hour) // far beyond the last finite bound
	s := h.Snapshot()
	last := bucketBounds[NumBuckets-1]
	if got := s.Quantile(0.99); got != last {
		t.Fatalf("overflow Quantile = %v, want clamp to last bound %v", got, last)
	}
}
