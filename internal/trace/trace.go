// Package trace records named time series produced by simulation runs and
// renders them as CSV (for external plotting) or quick ASCII plots (the
// terminal stand-in for the paper's figures).
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one named time series with strictly ordered sample times.
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// Add appends a sample. Times must be non-decreasing.
func (s *Series) Add(t, v float64) {
	if n := len(s.T); n > 0 && t < s.T[n-1] {
		panic(fmt.Sprintf("trace: non-monotonic time %v after %v in %q", t, s.T[n-1], s.Name))
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Mean returns the arithmetic mean of the values (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.V) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.V {
		sum += v
	}
	return sum / float64(len(s.V))
}

// Recorder collects multiple named series.
type Recorder struct {
	series map[string]*Series
	order  []string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Add appends a sample to the named series, creating it on first use.
func (r *Recorder) Add(name string, t, v float64) {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	s.Add(t, v)
}

// Series returns the named series, or nil if absent.
func (r *Recorder) Series(name string) *Series { return r.series[name] }

// WriteCSV writes all series in long format: series,time,value.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "series,time,value\n"); err != nil {
		return err
	}
	for _, name := range r.order {
		s := r.series[name]
		for i := range s.T {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", name, s.T[i], s.V[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ASCIIPlot renders the series as a width×height character plot with a
// value axis, suitable for terminal output.
func ASCIIPlot(s *Series, width, height int) string {
	if s == nil || s.Len() == 0 || width < 8 || height < 2 {
		return "(empty series)\n"
	}
	lo, hi := s.V[0], s.V[0]
	for _, v := range s.V {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		hi = lo + 1
	}
	t0, t1 := s.T[0], s.T[s.Len()-1]
	if t1 == t0 {
		t1 = t0 + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	// Piecewise-constant render: for each column, take the sample value
	// in effect at the column's time.
	for col := 0; col < width; col++ {
		tc := t0 + (t1-t0)*float64(col)/float64(width-1)
		i := sort.SearchFloat64s(s.T, tc)
		if i >= s.Len() {
			i = s.Len() - 1
		} else if s.T[i] > tc && i > 0 {
			i--
		}
		frac := (s.V[i] - lo) / (hi - lo)
		row := height - 1 - int(frac*float64(height-1)+0.5)
		grid[row][col] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%g .. %g]\n", s.Name, lo, hi)
	for i, row := range grid {
		label := "      "
		if i == 0 {
			label = fmt.Sprintf("%6.4g", hi)
		} else if i == height-1 {
			label = fmt.Sprintf("%6.4g", lo)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, row)
	}
	fmt.Fprintf(&b, "       t: %g .. %g s\n", t0, t1)
	return b.String()
}
