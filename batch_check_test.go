package adasense_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"adasense"
	"adasense/internal/sensor"
)

// TestBatchCheckRejects is the library-boundary table for the batch
// check: Push and Classify refuse every malformed batch with a
// *BatchError, a refused push leaves the session's snapshot bytes and
// the gateway's counters untouched, and readings at exactly the bound
// still serve.
func TestBatchCheckRejects(t *testing.T) {
	gw := testGateway(t, baselineFleet())
	svc := testService(t)
	sess, err := gw.Open("checked")
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() []byte {
		st, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := st.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// One accepted push first, so the snapshot holds a window remainder
	// and a ledger that a half-applied refusal would disturb.
	if _, err := sess.Push(gatewayBatch(t)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		spoil func(b *adasense.Batch)
	}{
		{"empty", func(b *adasense.Batch) { b.X, b.Y, b.Z = nil, nil, nil }},
		{"short y", func(b *adasense.Batch) { b.Y = b.Y[:len(b.Y)/2] }},
		{"long z", func(b *adasense.Batch) { b.Z = append(b.Z, 0) }},
		{"NaN", func(b *adasense.Batch) { b.X[7] = math.NaN() }},
		{"+Inf", func(b *adasense.Batch) { b.Y[0] = math.Inf(1) }},
		{"-Inf", func(b *adasense.Batch) { b.Z[len(b.Z)-1] = math.Inf(-1) }},
		{"1e300", func(b *adasense.Batch) { b.X[0] = 1e300 }},
		{"-1e300", func(b *adasense.Batch) { b.Z[3] = -1e300 }},
		{"just past the bound", func(b *adasense.Batch) { b.Y[5] = math.Nextafter(sensor.MaxAbsReading, math.Inf(1)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := gatewayBatch(t)
			tc.spoil(b)
			before, pushed := snapshot(), gw.Stats().BatchesPushed
			var be *adasense.BatchError
			if evs, err := sess.Push(b); !errors.As(err, &be) {
				t.Errorf("Push = %v, %v; want a *BatchError", evs, err)
			}
			if !bytes.Equal(snapshot(), before) {
				t.Error("a refused push changed the session snapshot")
			}
			if got := gw.Stats().BatchesPushed; got != pushed {
				t.Errorf("a refused push was counted: batches %d -> %d", pushed, got)
			}
			if c, err := gw.Classify(b); !errors.As(err, &be) {
				t.Errorf("Gateway.Classify = %+v, %v; want a *BatchError", c, err)
			}
			if c, err := svc.Classify(b); !errors.As(err, &be) {
				t.Errorf("Service.Classify = %+v, %v; want a *BatchError", c, err)
			}
		})
	}
	if _, err := svc.Classify(nil); err == nil {
		t.Error("Service.Classify(nil) accepted")
	}

	b := gatewayBatch(t)
	b.X[0], b.Y[0] = sensor.MaxAbsReading, -sensor.MaxAbsReading
	if _, err := sess.Push(b); err != nil {
		t.Errorf("Push at exactly ±MaxAbsReading: %v", err)
	}
	if _, err := svc.Classify(b); err != nil {
		t.Errorf("Classify at exactly ±MaxAbsReading: %v", err)
	}
}
