package reqtrace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNewIDShapeAndUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if !ValidID(id) {
			t.Fatalf("NewID() = %q, not a valid id", id)
		}
		if len(id) != 16 {
			t.Fatalf("NewID() = %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q in 100 draws", id)
		}
		seen[id] = true
	}
}

func TestValidID(t *testing.T) {
	for _, ok := range []string{"ab12", "0000000000000000", "f"} {
		if !ValidID(ok) {
			t.Errorf("ValidID(%q) = false, want true", ok)
		}
	}
	bad := []string{"", "AB12", "xyz", "ab\n12", `ab"12`, string(make([]byte, 65))}
	for _, s := range bad {
		if ValidID(s) {
			t.Errorf("ValidID(%q) = true, want false", s)
		}
	}
}

func TestSpanRecording(t *testing.T) {
	tr := New()
	end := tr.Span("auth")
	time.Sleep(time.Millisecond)
	end()
	end = tr.Span("classify")
	end()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "auth" || spans[0].Dur < time.Millisecond {
		t.Errorf("auth span = %+v", spans[0])
	}
	if spans[1].Name != "classify" || spans[1].Start < spans[0].Start+spans[0].Dur {
		t.Errorf("classify span = %+v", spans[1])
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Span("auth")() // must not panic
	if tr.Spans() != nil {
		t.Error("nil trace should have nil spans")
	}
}

func TestSpanCap(t *testing.T) {
	tr := New()
	for i := 0; i < maxSpans+10; i++ {
		tr.Span("s")()
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Fatalf("got %d spans, want cap %d", got, maxSpans)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New()
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatal("trace lost in context round trip")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty context yielded %v", got)
	}
	// WithoutCancel must preserve the trace: the swap-replication
	// fan-out relies on it.
	if got := FromContext(context.WithoutCancel(ctx)); got != tr {
		t.Fatal("trace lost through WithoutCancel")
	}
}

func TestRecorderRings(t *testing.T) {
	rec := NewRecorder(4, 50*time.Millisecond)
	for i := 0; i < 6; i++ {
		rec.Record(Record{ID: string(rune('a' + i)), Status: 200, Duration: time.Millisecond})
	}
	s := rec.Snapshot()
	if s.Total != 6 {
		t.Errorf("total = %d, want 6", s.Total)
	}
	if len(s.Recent) != 4 {
		t.Fatalf("recent len = %d, want 4", len(s.Recent))
	}
	// Oldest-first after wrap: c d e f.
	if s.Recent[0].ID != "c" || s.Recent[3].ID != "f" {
		t.Errorf("recent order = %v", ids(s.Recent))
	}
	if len(s.Notable) != 0 {
		t.Errorf("healthy fast requests should not be notable: %v", ids(s.Notable))
	}

	rec.Record(Record{ID: "slow", Status: 200, Duration: time.Second})
	rec.Record(Record{ID: "err", Status: 502, Duration: time.Millisecond})
	s = rec.Snapshot()
	if len(s.Notable) != 2 || s.Notable[0].ID != "slow" || s.Notable[1].ID != "err" {
		t.Errorf("notable = %v, want [slow err]", ids(s.Notable))
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(8, time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				rec.Record(Record{ID: "x", Status: 200})
				rec.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := rec.Snapshot().Total; got != 800 {
		t.Fatalf("total = %d, want 800", got)
	}
}

func ids(rs []Record) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}
