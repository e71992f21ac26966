package telemetry

import (
	"io"
	"math"
	"strconv"
	"strings"
)

// Encoder writes metrics in the Prometheus text exposition format
// (version 0.0.4): for each series a # HELP line, a # TYPE line and the
// samples themselves. It is a deliberately small hand-rolled encoder —
// the serving stack exports a fixed set of counters, gauges and
// fixed-bucket histograms (labels limited to a single static pair plus
// the histogram `le`), which is the corner of the format it implements.
//
// The first write error sticks: subsequent calls are no-ops and Err
// returns it, so callers emit the whole exposition and check once.
type Encoder struct {
	w   io.Writer
	err error
}

// ContentType is the value /metrics responses declare, per the
// Prometheus exposition format spec.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Counter emits one monotonically increasing series. By Prometheus
// convention counter names end in _total.
func (e *Encoder) Counter(name, help string, v uint64) {
	e.series(name, help, "counter", strconv.FormatUint(v, 10))
}

// Gauge emits one point-in-time series.
func (e *Encoder) Gauge(name, help string, v float64) {
	e.series(name, help, "gauge", formatFloat(v))
}

// Label is one metric label pair. Values are escaped per the
// exposition format (backslash, double quote, newline).
type Label struct {
	Name  string
	Value string
}

// GaugeWith emits one gauge sample carrying the given labels — used for
// info-style series such as adasense_build_info, whose value is
// constant 1 and whose payload lives in the labels.
func (e *Encoder) GaugeWith(name, help string, labels []Label, v float64) {
	if e.err != nil {
		return
	}
	var b strings.Builder
	e.header(&b, name, help, "gauge")
	b.WriteString(name)
	writeLabels(&b, labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
	_, e.err = io.WriteString(e.w, b.String())
}

// CounterSample couples one label value with its counter reading —
// one (type="batch", value) sample of a counter vec.
type CounterSample struct {
	// LabelValue is the value of the vec's label for this sample.
	LabelValue string
	V          uint64
}

// CounterVec emits one counter metric family whose samples fan out
// over a single label — the shape of the per-frame-type stream
// counters. HELP and TYPE are emitted once for the family.
func (e *Encoder) CounterVec(name, help, labelName string, samples []CounterSample) {
	if e.err != nil {
		return
	}
	var b strings.Builder
	e.header(&b, name, help, "counter")
	for _, s := range samples {
		writeSample(&b, name, []Label{{Name: labelName, Value: s.LabelValue}},
			strconv.FormatUint(s.V, 10))
	}
	_, e.err = io.WriteString(e.w, b.String())
}

// HistogramSeries couples one label value with the distribution
// observed under it — one (route="push", snapshot) pair of a
// histogram vec.
type HistogramSeries struct {
	// LabelValue is the value of the vec's label for this series.
	LabelValue string
	H          HistogramSnapshot
}

// Histogram emits one histogram metric family: for each series the
// cumulative `le` buckets over the fixed log2 bucket layout, the
// mandatory +Inf bucket, and the _sum and _count samples, each carrying
// labelName=LabelValue. HELP and TYPE are emitted once for the family.
func (e *Encoder) Histogram(name, help, labelName string, series []HistogramSeries) {
	if e.err != nil {
		return
	}
	var b strings.Builder
	e.header(&b, name, help, "histogram")
	for _, s := range series {
		labels := []Label{{Name: labelName, Value: s.LabelValue}}
		cum := uint64(0)
		for i, bound := range bucketBounds {
			cum += s.H.Bins[i]
			writeSample(&b, name+"_bucket", append(labels, Label{Name: "le", Value: formatFloat(bound)}), strconv.FormatUint(cum, 10))
		}
		// The +Inf bucket must equal _count; emit the snapshot's count so
		// the invariant holds even if an Observe landed between bin reads.
		writeSample(&b, name+"_bucket", append(labels, Label{Name: "le", Value: "+Inf"}), strconv.FormatUint(s.H.Count, 10))
		writeSample(&b, name+"_sum", labels, formatFloat(s.H.SumSeconds))
		writeSample(&b, name+"_count", labels, strconv.FormatUint(s.H.Count, 10))
	}
	_, e.err = io.WriteString(e.w, b.String())
}

// Err returns the first write error, or nil.
func (e *Encoder) Err() error { return e.err }

// formatFloat renders a float64 sample value, honoring the format's
// spellings for the IEEE specials.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelEscaper escapes label values: backslash, double quote and
// newline, per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// writeLabels renders {k="v",...}; no braces for an empty set.
func writeLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		labelEscaper.WriteString(b, l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// writeSample renders one sample line.
func writeSample(b *strings.Builder, name string, labels []Label, value string) {
	b.WriteString(name)
	writeLabels(b, labels)
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// helpEscaper escapes HELP text per the exposition format: backslash and
// newline only (double quotes are escaped only inside label values,
// which this encoder does not emit).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// header renders the # HELP and # TYPE preamble of one metric family.
func (e *Encoder) header(b *strings.Builder, name, help, typ string) {
	b.Grow(2*len(name) + len(help) + len(typ) + 32)
	b.WriteString("# HELP ")
	b.WriteString(name)
	b.WriteByte(' ')
	helpEscaper.WriteString(b, help)
	b.WriteString("\n# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')
}

func (e *Encoder) series(name, help, typ, value string) {
	if e.err != nil {
		return
	}
	var b strings.Builder
	e.header(&b, name, help, typ)
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
	_, e.err = io.WriteString(e.w, b.String())
}
