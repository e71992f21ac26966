package stream

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"adasense/internal/sensor"
	"adasense/internal/telemetry"
)

// fakeServer runs a scripted ADSP peer on a raw TCP listener and
// returns its "tcp://" target. The script receives the accepted
// connection after the hello/welcome handshake has completed.
func fakeServer(t *testing.T, welcome Welcome, script func(conn net.Conn, rd *Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := NewReader(conn)
		f, err := rd.Next()
		if err != nil || f.Type != FrameHello {
			t.Errorf("server: first frame = %v, %v; want hello", f.Type, err)
			return
		}
		if _, err := DecodeHello(f.Payload); err != nil {
			t.Errorf("server: bad hello: %v", err)
			return
		}
		conn.Write(AppendFrame(nil, FrameWelcome, AppendWelcome(nil, welcome)))
		if script != nil {
			script(conn, rd)
		}
	}()
	return "tcp://" + ln.Addr().String()
}

func dialTest(t *testing.T, target string) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, target, "device-1", "token")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientHandshakeAndPush(t *testing.T) {
	w := Welcome{Config: testCfg, ModelGen: 3, Resumed: true}
	target := fakeServer(t, w, func(conn net.Conn, rd *Reader) {
		var batch BatchMsg
		for {
			f, err := rd.Next()
			if err != nil {
				return
			}
			if f.Type != FrameBatch {
				continue
			}
			if err := batch.Decode(f.Payload); err != nil {
				t.Errorf("server: batch decode: %v", err)
				return
			}
			ack := EventsMsg{Seq: batch.Seq, Config: batch.Config, Events: []Event{
				{Activity: 2, Confidence: 0.8, Config: batch.Config},
			}}
			conn.Write(AppendFrame(nil, FrameEvents, AppendEvents(nil, &ack)))
		}
	})

	c := dialTest(t, target)
	if got := c.Welcome(); got != w {
		t.Fatalf("Welcome() = %+v, want %+v", got, w)
	}
	if c.Config() != testCfg || c.Device() != "device-1" {
		t.Fatalf("Config/Device = %+v / %q", c.Config(), c.Device())
	}

	b := &sensor.Batch{Config: testCfg, StartAt: 1, X: []float64{1, 2}, Y: []float64{3, 4}, Z: []float64{5, 6}}
	for i := 0; i < 3; i++ {
		ev, err := c.Push(b)
		if err != nil {
			t.Fatalf("Push %d: %v", i, err)
		}
		if len(ev.Events) != 1 || ev.Events[0].Activity != 2 {
			t.Fatalf("Push %d ack = %+v", i, ev)
		}
	}
}

func TestClientServerErrorAppliesConfig(t *testing.T) {
	directed := sensor.Config{FreqHz: 50, AvgWindow: 64}
	target := fakeServer(t, Welcome{Config: testCfg}, func(conn net.Conn, rd *Reader) {
		f, err := rd.Next()
		if err != nil || f.Type != FrameBatch {
			return
		}
		var batch BatchMsg
		batch.Decode(f.Payload)
		e := ErrorMsg{Seq: batch.Seq, Code: CodeBadBatch, Config: directed, Msg: "config mismatch"}
		conn.Write(AppendFrame(nil, FrameError, AppendError(nil, e)))
	})

	c := dialTest(t, target)
	b := &sensor.Batch{Config: testCfg, X: []float64{1}, Y: []float64{1}, Z: []float64{1}}
	_, err := c.Push(b)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeBadBatch {
		t.Fatalf("Push err = %v, want *ServerError CodeBadBatch", err)
	}
	if c.Config() != directed {
		t.Fatalf("Config() = %+v, want the directed %+v", c.Config(), directed)
	}
}

func TestClientRedirectGoodbye(t *testing.T) {
	red := Redirect{ReplicaID: "replica-b", ReplicaURL: "http://10.9.9.9:1234"}
	target := fakeServer(t, Welcome{Config: testCfg}, func(conn net.Conn, rd *Reader) {
		if f, err := rd.Next(); err != nil || f.Type != FrameBatch {
			return
		}
		conn.Write(AppendFrame(nil, FrameRedirect, AppendRedirect(nil, red)))
		conn.Write(AppendFrame(nil, FrameGoodbye, AppendGoodbye(nil, Goodbye{Code: CodeRedirect, Msg: "not owner"})))
	})

	c := dialTest(t, target)
	b := &sensor.Batch{Config: testCfg, X: []float64{1}, Y: []float64{1}, Z: []float64{1}}
	_, err := c.Push(b)
	var g *GoodbyeError
	if !errors.As(err, &g) || g.Code != CodeRedirect {
		t.Fatalf("Push err = %v, want *GoodbyeError CodeRedirect", err)
	}
	if g.Redirect == nil || *g.Redirect != red {
		t.Fatalf("redirect = %+v, want %+v", g.Redirect, red)
	}
	if !IsGoodbye(err, CodeRedirect) || IsGoodbye(err, CodeDraining) {
		t.Fatal("IsGoodbye misclassified the error")
	}
}

func TestClientDialRefusedByGoodbye(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := NewReader(conn)
		if _, err := rd.Next(); err != nil {
			return
		}
		conn.Write(AppendFrame(nil, FrameGoodbye, AppendGoodbye(nil, Goodbye{Code: CodeDraining, Msg: "draining"})))
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = Dial(ctx, "tcp://"+ln.Addr().String(), "d", "t")
	if !IsGoodbye(err, CodeDraining) {
		t.Fatalf("Dial err = %v, want goodbye CodeDraining", err)
	}
}

func TestClientPingAndConfigPush(t *testing.T) {
	pushed := sensor.Config{FreqHz: 25, AvgWindow: 16}
	target := fakeServer(t, Welcome{Config: testCfg}, func(conn net.Conn, rd *Reader) {
		f, err := rd.Next()
		if err != nil || f.Type != FramePing {
			return
		}
		// Interleave a config push before the pong; the client applies it.
		conn.Write(AppendFrame(nil, FrameConfig, AppendConfig(nil, pushed)))
		conn.Write(AppendFrame(nil, FramePong, f.Payload))
	})

	c := dialTest(t, target)
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if c.Config() != pushed {
		t.Fatalf("Config() = %+v, want pushed %+v", c.Config(), pushed)
	}
}

func TestClientEOFOnPeerVanishing(t *testing.T) {
	target := fakeServer(t, Welcome{Config: testCfg}, func(conn net.Conn, rd *Reader) {
		rd.Next()
		conn.Close() // vanish mid-exchange
	})
	c := dialTest(t, target)
	b := &sensor.Batch{Config: testCfg, X: []float64{1}, Y: []float64{1}, Z: []float64{1}}
	if _, err := c.Push(b); err == nil {
		t.Fatal("Push succeeded against a vanished peer")
	}
}

// TestFrameTypesFitTelemetry pins the cross-package invariant the
// stream counters rely on: every ADSP frame type indexes the
// fixed-size telemetry arrays, and every type has a label name.
func TestFrameTypesFitTelemetry(t *testing.T) {
	for typ := FrameHello; typ <= FrameGoodbye; typ++ {
		if uint8(typ) >= telemetry.NumFrameTypes {
			t.Errorf("frame type %s (0x%02x) does not fit telemetry.NumFrameTypes = %d",
				typ, uint8(typ), telemetry.NumFrameTypes)
		}
	}
	var sc telemetry.StreamCounters
	sc.FrameIn(uint8(FrameBatch))
	sc.FrameOut(uint8(FrameEvents))
	sc.FrameIn(0xFF) // out of range: must be dropped, not panic
	s := sc.Snapshot()
	if s.FramesIn[FrameBatch] != 1 || s.FramesOut[FrameEvents] != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestDialUnsupportedTarget(t *testing.T) {
	ctx := context.Background()
	if _, err := Dial(ctx, "ftp://host/x", "d", "t"); err == nil {
		t.Fatal("Dial accepted an ftp target")
	}
}

// TestClientPushRefusesBadBatch pins the batch bound at what one frame
// carries: 43689 samples per axis encode to a 1048568-byte payload (a
// 1048584-byte frame) and push; one more sample, an empty batch or ragged axes are refused
// before anything is written, and the connection stays usable.
func TestClientPushRefusesBadBatch(t *testing.T) {
	if maxBatchSamples != 43689 {
		t.Fatalf("maxBatchSamples = %d, want 43689", maxBatchSamples)
	}
	seqs := make(chan uint64, 4)
	target := fakeServer(t, Welcome{Config: testCfg}, func(conn net.Conn, rd *Reader) {
		var batch BatchMsg
		for {
			f, err := rd.Next()
			if err != nil || f.Type != FrameBatch {
				return
			}
			if err := batch.Decode(f.Payload); err != nil {
				t.Errorf("server: %s frame: %v", f.Type, err)
				return
			}
			seqs <- batch.Seq
			conn.Write(AppendFrame(nil, FrameEvents, AppendEvents(nil, &EventsMsg{Seq: batch.Seq, Config: testCfg})))
		}
	})
	c := dialTest(t, target)
	axis := func(n int) []float64 { return make([]float64, n) }
	for _, tc := range []struct {
		name    string
		x, y, z int
	}{
		{"empty", 0, 0, 0},
		{"one over a frame", maxBatchSamples + 1, maxBatchSamples + 1, maxBatchSamples + 1},
		{"ragged", 3, 3, 2},
	} {
		b := &sensor.Batch{Config: testCfg, X: axis(tc.x), Y: axis(tc.y), Z: axis(tc.z)}
		if _, err := c.Push(b); err == nil || !strings.Contains(err.Error(), "samples per axis") {
			t.Errorf("%s: Push err = %v, want a batch refusal", tc.name, err)
		}
	}
	full := &sensor.Batch{Config: testCfg, X: axis(maxBatchSamples), Y: axis(maxBatchSamples), Z: axis(maxBatchSamples)}
	if n := len(AppendBatch(nil, &BatchMsg{X: full.X, Y: full.Y, Z: full.Z})); n != 1048568 || n+24 <= MaxFramePayload {
		t.Fatalf("full batch payload = %d bytes, want 1048568 with no room for a sample more under %d", n, MaxFramePayload)
	}
	if _, err := c.Push(full); err != nil {
		t.Fatalf("Push of %d samples: %v", maxBatchSamples, err)
	}
	if seq := <-seqs; seq != 1 {
		t.Fatalf("first batch on the wire has seq %d, want 1 (refusals must not consume one)", seq)
	}
}

func TestDialRefusesOversizedStrings(t *testing.T) {
	long := strings.Repeat("x", maxStringBytes+1)
	for _, tc := range []struct{ name, device, token string }{
		{"device id", long, "t"},
		{"token", "d", long},
	} {
		// The target would refuse a connection; the check must come first.
		_, err := Dial(context.Background(), "tcp://127.0.0.1:1", tc.device, tc.token)
		if err == nil || !strings.Contains(err.Error(), "-byte limit") {
			t.Errorf("%s of %d bytes: Dial err = %v, want a length refusal", tc.name, len(long), err)
		}
	}
	// The bound itself is legal.
	c, err := Dial(context.Background(), fakeServer(t, Welcome{Config: testCfg}, nil), long[:maxStringBytes], long[:maxStringBytes])
	if err != nil {
		t.Fatalf("Dial with %d-byte id and token: %v", maxStringBytes, err)
	}
	c.Close()
}
