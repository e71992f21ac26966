package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"adasense"
	"adasense/internal/stream"
)

// newDoorServer starts one standalone server (no cluster) with both
// stream entrances live: the HTTP upgrade behind the returned
// httptest server's URL and a raw-TCP listener at the returned
// "tcp://" target. Sessions are pinned at the top configuration unless
// opts install another controller.
func newDoorServer(t *testing.T, opts ...adasense.GatewayOption) (*httptest.Server, *adasense.Gateway, string) {
	t.Helper()
	opts = append([]adasense.GatewayOption{
		adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
			return adasense.NewBaselineController()
		})),
	}, opts...)
	gw, err := adasense.NewGateway(quickSystem(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(gw, nil)
	h.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	// Cleanups run last-in first-out: stop the stream ingress (live
	// connections and admission batcher workers) before its listeners.
	t.Cleanup(h.stream.Shutdown)
	go h.stream.Serve(ln)
	return ts, gw, "tcp://" + ln.Addr().String()
}

// dialDoor dials one device, failing the test on any refusal.
func dialDoor(t *testing.T, target, device string) *stream.Client {
	t.Helper()
	c, err := stream.Dial(context.Background(), target, device, "")
	if err != nil {
		t.Fatalf("dial %s at %s: %v", device, target, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wantServerError asserts err is a per-batch refusal with code.
func wantServerError(t *testing.T, err error, code stream.CloseCode) *stream.ServerError {
	t.Helper()
	var se *stream.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a server error with code %s", err, code)
	}
	if se.Code != code {
		t.Fatalf("server error code = %s, want %s (%v)", se.Code, code, err)
	}
	return se
}

// TestStreamDoorOutcomes pins the stream door's answers to each session
// outcome a device can meet after the handshake is authorized: resume,
// capacity, a refused batch that keeps the connection, rate limiting
// and a session closed underneath the stream.
func TestStreamDoorOutcomes(t *testing.T) {
	batch := streamBatch(t)

	t.Run("ResumedOnRedial", func(t *testing.T) {
		_, gw, target := newDoorServer(t)
		first := dialDoor(t, target, "resume-dev")
		if first.Welcome().Resumed {
			t.Fatal("first dial reported a resumed session")
		}
		if _, err := first.Push(batch); err != nil {
			t.Fatal(err)
		}
		// The device re-dials while its session is still live (a
		// second connection, as after a silent network change).
		second := dialDoor(t, target, "resume-dev")
		if !second.Welcome().Resumed {
			t.Fatal("re-dial to a live session did not report Resumed")
		}
		if _, err := second.Push(batch); err != nil {
			t.Fatal(err)
		}
		if got := gw.Stats().SessionsLive; got != 1 {
			t.Fatalf("live sessions = %d after re-dial, want 1", got)
		}
	})

	t.Run("CapacityAtFullGateway", func(t *testing.T) {
		ts, gw, _ := newDoorServer(t, adasense.WithMaxSessions(1))
		if _, err := gw.Open("occupant"); err != nil {
			t.Fatal(err)
		}
		_, err := stream.Dial(context.Background(), ts.URL, "latecomer", "")
		if !stream.IsGoodbye(err, stream.CodeCapacity) {
			t.Fatalf("dial at a full gateway = %v, want goodbye %s", err, stream.CodeCapacity)
		}
		if _, ok := gw.Lookup("latecomer"); ok {
			t.Fatal("refused device left a session behind")
		}
	})

	t.Run("BadBatchKeepsConnection", func(t *testing.T) {
		_, _, target := newDoorServer(t)
		c := dialDoor(t, target, "mismatch-dev")
		directed := c.Config()
		wrong := *batch
		wrong.Config = adasense.ParetoStates()[3]
		if wrong.Config == directed {
			t.Fatal("test needs a config other than the directed one")
		}
		_, err := c.Push(&wrong)
		se := wantServerError(t, err, stream.CodeBadBatch)
		if se.Config != directed || c.Config() != directed {
			t.Fatalf("refusal directed %v (client holds %v), want %v", se.Config, c.Config(), directed)
		}
		// The connection survives the refusal: the corrected batch lands.
		if _, err := c.Push(batch); err != nil {
			t.Fatalf("push after a refused batch: %v", err)
		}
	})

	t.Run("RateLimited", func(t *testing.T) {
		// A frozen clock: the device bucket never refills. The open
		// spends one token and the first push the other.
		frozen := time.Unix(1_700_000_000, 0)
		_, _, target := newDoorServer(t,
			adasense.WithGatewayClock(func() time.Time { return frozen }),
			adasense.WithRateLimit(adasense.RateLimit{DevicePerSec: 1, DeviceBurst: 2}))
		c := dialDoor(t, target, "limited-dev")
		if _, err := c.Push(batch); err != nil {
			t.Fatal(err)
		}
		_, err := c.Push(batch)
		se := wantServerError(t, err, stream.CodeRateLimited)
		if se.Config != c.Config() {
			t.Fatalf("rate-limit refusal directed %v, client holds %v", se.Config, c.Config())
		}
		// Still connected: the next exchange is answered, not a dead socket.
		_, err = c.Push(batch)
		wantServerError(t, err, stream.CodeRateLimited)
	})

	t.Run("SessionClosedUnderneath", func(t *testing.T) {
		_, gw, target := newDoorServer(t)
		c := dialDoor(t, target, "closed-dev")
		if _, err := c.Push(batch); err != nil {
			t.Fatal(err)
		}
		if err := gw.CloseSession("closed-dev"); err != nil {
			t.Fatal(err)
		}
		_, err := c.Push(batch)
		if !stream.IsGoodbye(err, stream.CodeSessionClosed) {
			t.Fatalf("push after close = %v, want goodbye %s", err, stream.CodeSessionClosed)
		}
	})
}
