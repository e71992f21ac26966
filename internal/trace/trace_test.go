package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestSeriesAddMonotonic(t *testing.T) {
	var s Series
	s.Add(0, 1)
	s.Add(1, 2)
	s.Add(1, 3) // equal times allowed
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-monotonic Add did not panic")
		}
	}()
	s.Add(0.5, 4)
}

func TestSeriesMean(t *testing.T) {
	var s Series
	if s.Mean() != 0 {
		t.Fatal("empty mean != 0")
	}
	s.Add(0, 2)
	s.Add(1, 4)
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
}

func TestRecorderSeriesLifecycle(t *testing.T) {
	r := NewRecorder()
	r.Add("current", 0, 180)
	r.Add("current", 1, 96)
	r.Add("state", 0, 0)
	if got := r.Series("current").Len(); got != 2 {
		t.Fatalf("current len = %d", got)
	}
	if r.Series("missing") != nil {
		t.Fatal("missing series should be nil")
	}
	// Series keep their creation order.
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "series,time,value\ncurrent,0,180\ncurrent,1,96\nstate,0,0\n"; buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Add("a", 0, 1.5)
	r.Add("b", 2, -3)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "series,time,value\na,0,1.5\nb,2,-3\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestASCIIPlotShape(t *testing.T) {
	var s Series
	s.Name = "demo"
	for i := 0; i < 50; i++ {
		s.Add(float64(i), float64(i%10))
	}
	out := ASCIIPlot(&s, 40, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 8 rows + time footer.
	if len(lines) != 10 {
		t.Fatalf("plot has %d lines, want 10:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "demo") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(out, "*") {
		t.Fatal("plot has no points")
	}
}

func TestASCIIPlotDegenerate(t *testing.T) {
	if got := ASCIIPlot(nil, 40, 8); !strings.Contains(got, "empty") {
		t.Fatalf("nil series plot = %q", got)
	}
	var s Series
	s.Add(0, 5) // constant single sample
	if out := ASCIIPlot(&s, 10, 3); !strings.Contains(out, "*") {
		t.Fatalf("single-point plot missing point:\n%s", out)
	}
}
