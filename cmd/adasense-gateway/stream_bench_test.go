package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"adasense"
	"adasense/internal/stream"
)

// benchServer starts one single-replica server for the capacity
// benchmarks: real HTTP listener, streaming ingress wired, no cluster.
func benchServer(b *testing.B) (*httptest.Server, *server) {
	b.Helper()
	gw, err := adasense.NewGateway(quickSystem(b),
		adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
			return adasense.NewBaselineController()
		})))
	if err != nil {
		b.Fatal(err)
	}
	h := newServer(gw, nil)
	// Discard access logs: at info level every benched push would write
	// a log line, polluting the benchmark output CI parses.
	h.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	ts := httptest.NewServer(h)
	b.Cleanup(ts.Close)
	return ts, h
}

// BenchmarkStreamPushHTTPJSON is the baseline the streaming ingress is
// judged against: one device pushing one-second batches over the
// request/response surface — TCP+HTTP framing, JSON encode/decode and a
// fresh handler pass per push.
func BenchmarkStreamPushHTTPJSON(b *testing.B) {
	ts, _ := benchServer(b)
	raw := streamBatch(b)
	body, err := json.Marshal(batchJSON{Config: raw.Config.Name(), StartAt: raw.StartAt, X: raw.X, Y: raw.Y, Z: raw.Z})
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	resp, err := client.Post(ts.URL+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(`{"id":"bench-http"}`)))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("open = %d", resp.StatusCode)
	}
	push := func() {
		resp, err := client.Post(ts.URL+"/v1/sessions/bench-http/push", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("push = %d", resp.StatusCode)
		}
	}
	// Warm the session's window and the connection pool so the loop
	// measures the steady state, like the stream benchmarks.
	for i := 0; i < 8; i++ {
		push()
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
}

// benchStreamPush measures the ADSP steady state — one persistent
// connection, binary frames, reused buffers on both ends — against a
// live server, over whichever transport target points at.
func benchStreamPush(b *testing.B, target string) {
	b.Helper()
	raw := streamBatch(b)
	c, err := stream.Dial(context.Background(), target, "bench-adsp", "")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	m := stream.BatchMsg{Config: raw.Config, StartAt: raw.StartAt, X: raw.X, Y: raw.Y, Z: raw.Z}
	// Warm both ends' reused buffers (client frame/events scratch,
	// server decode scratch, session window) out of the timed loop.
	for i := 0; i < 8; i++ {
		if _, err := c.Push(raw); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(stream.AppendFrame(nil, stream.FrameBatch, stream.AppendBatch(nil, &m)))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Push(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPushADSP drives the stream upgraded from HTTP at
// GET /v1/stream.
func BenchmarkStreamPushADSP(b *testing.B) {
	ts, _ := benchServer(b)
	benchStreamPush(b, ts.URL)
}

// BenchmarkStreamPushADSPTCP drives the raw-TCP listener behind
// -stream-addr.
func BenchmarkStreamPushADSPTCP(b *testing.B) {
	_, h := benchServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go h.stream.Serve(ln)
	benchStreamPush(b, "tcp://"+ln.Addr().String())
}
