package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// opTypes are the operation types of the accounting, in print order.
var opTypes = []string{"open", "push", "close", "scrape", "experiment"}

// count is one operation type's exact accounting.
type count struct{ attempted, succeeded, failed int }

// tally counts every operation a run attempted: attempted = succeeded +
// failed for each type.
type tally struct{ byType map[string]*count }

func newTally() *tally {
	t := &tally{byType: make(map[string]*count, len(opTypes))}
	for _, name := range opTypes {
		t.byType[name] = &count{}
	}
	return t
}

func (t *tally) record(op string, ok bool) {
	c := t.byType[op]
	c.attempted++
	if ok {
		c.succeeded++
	} else {
		c.failed++
	}
}

func (t *tally) merge(o *tally) {
	for name, c := range o.byType {
		m := t.byType[name]
		m.attempted += c.attempted
		m.succeeded += c.succeeded
		m.failed += c.failed
	}
}

func (t *tally) totals() (attempted, failed int) {
	for _, c := range t.byType {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// print writes the per-type accounting and fail_pct.
func (t *tally) print(w io.Writer, workload string) {
	for _, name := range opTypes {
		c := t.byType[name]
		if c.attempted == 0 {
			continue
		}
		fmt.Fprintf(w, "%s ops %-10s attempted %8d = succeeded %8d + failed %d\n",
			workload, name, c.attempted, c.succeeded, c.failed)
	}
	attempted, failed := t.totals()
	fmt.Fprintf(w, "%s fail_pct %.4f %% (%d of %d operations)\n",
		workload, 100*float64(failed)/float64(max(attempted, 1)), failed, attempted)
}

// quantile returns the exact q-quantile (nearest rank) of sorted.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i])
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// median of xs (NaN when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianDuration is the median of ds in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// windowCount splits each timed phase into this many equal windows. The
// throughput, latency and CPU metrics are medians over the windows, so a
// burst of interference from outside the benchmark moves at most a few
// windows instead of the whole figure.
const windowCount = 10

// sample is one timed operation: when it ended (since the phase start)
// and how long it took.
type sample struct{ end, lat int64 }

// phaseStats are the windowed medians of one timed phase.
type phaseStats struct {
	ratePerSec, p50us, p99us, cpuUSPerOp float64
	n                                    int
}

// windowed computes the per-window rate, p50, p99 and CPU per operation
// and returns their medians. cpuNS holds the server CPU time read at each
// window boundary (windowCount+1 readings). Samples ending after the
// phase count toward no window.
func windowed(samples []sample, phase time.Duration, cpuNS []int64) phaseStats {
	win := int64(phase) / windowCount
	lats := make([][]int64, windowCount)
	for _, s := range samples {
		w := s.end / win
		if w >= windowCount {
			continue
		}
		lats[w] = append(lats[w], s.lat)
	}
	var rate, p50, p99, cpu []float64
	for w, l := range lats {
		if len(l) == 0 {
			continue
		}
		sortInt64(l)
		rate = append(rate, float64(len(l))/time.Duration(win).Seconds())
		p50 = append(p50, quantile(l, 0.50)/1e3)
		p99 = append(p99, quantile(l, 0.99)/1e3)
		if cpuNS != nil {
			cpu = append(cpu, float64(cpuNS[w+1]-cpuNS[w])/1e3/float64(len(l)))
		}
	}
	return phaseStats{median(rate), median(p50), median(p99), median(cpu), len(samples)}
}
