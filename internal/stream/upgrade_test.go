package stream

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// upgradePair starts an upgrade-handling test server, dials it, and
// returns both ends of one live upgraded connection.
func upgradePair(t *testing.T) (client io.ReadWriteCloser, server net.Conn) {
	t.Helper()
	accepted := make(chan net.Conn, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := UpgradeHTTP(w, r)
		if err != nil {
			t.Errorf("UpgradeHTTP: %v", err)
			return
		}
		accepted <- c
	}))
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := dialUpgrade(ctx, ts.URL)
	if err != nil {
		t.Fatalf("dialUpgrade: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	select {
	case s := <-accepted:
		t.Cleanup(func() { s.Close() })
		return c, s
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted the upgrade")
		return nil, nil
	}
}

// TestWSAdspOverWebSocket runs an ADSP exchange over the upgraded
// connection, exercising the Reader against a frame that arrives in
// separate small writes.
func TestWSAdspOverWebSocket(t *testing.T) {
	c, s := upgradePair(t)

	go func() {
		data := AppendFrame(nil, FrameHello, AppendHello(nil, Hello{Device: "d", Token: "t"}))
		for i := 0; i < len(data); i += 5 {
			end := i + 5
			if end > len(data) {
				end = len(data)
			}
			if _, err := c.Write(data[i:end]); err != nil {
				t.Errorf("chunk write: %v", err)
				return
			}
		}
	}()
	s.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := NewReader(s).Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	h, err := DecodeHello(f.Payload)
	if err != nil || h.Device != "d" || h.Token != "t" {
		t.Fatalf("hello = %+v, %v", h, err)
	}
}

// TestWSCloseSurfacesEOF checks that the client closing an upgraded
// connection reaches the server as io.EOF.
func TestWSCloseSurfacesEOF(t *testing.T) {
	c, s := upgradePair(t)
	if err := c.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	s.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := s.Read(make([]byte, 16)); err != io.EOF {
		t.Fatalf("server read after close = %v, want io.EOF", err)
	}
}

func TestUpgradeHTTPRejections(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := UpgradeHTTP(w, r); err == nil {
			t.Error("UpgradeHTTP accepted a request that does not ask for adsp")
		}
	}))
	defer ts.Close()

	for _, tc := range []struct{ name, connection, upgrade string }{
		{"plain GET", "", ""},
		{"websocket", "Upgrade", "websocket"},
		{"no Connection: Upgrade", "keep-alive", upgradeToken},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
		if tc.connection != "" {
			req.Header.Set("Connection", tc.connection)
		}
		if tc.upgrade != "" {
			req.Header.Set("Upgrade", tc.upgrade)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != upgradeToken {
			t.Errorf("%s: status %d, Upgrade %q; want 426 naming %q",
				tc.name, resp.StatusCode, resp.Header.Get("Upgrade"), upgradeToken)
		}
	}

	// A well-formed upgrade on a writer that cannot be hijacked.
	req := httptest.NewRequest(http.MethodGet, "/v1/stream", nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", upgradeToken)
	rec := httptest.NewRecorder()
	if _, err := UpgradeHTTP(rec, req); err == nil || rec.Code != http.StatusInternalServerError {
		t.Errorf("non-hijackable writer: err %v, status %d; want an error and 500", err, rec.Code)
	}
}

func TestDialUpgradeRefusals(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, status := range []int{http.StatusNotFound, http.StatusUpgradeRequired} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
		}))
		_, err := Dial(ctx, ts.URL, "d", "t")
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(status)) {
			t.Errorf("answer %d: Dial err = %v, want an error naming the status", status, err)
		}
	}
	for _, target := range []string{"https://example.invalid", "ws://example.invalid", "wss://example.invalid"} {
		if _, err := Dial(ctx, target, "d", "t"); err == nil || !strings.Contains(err.Error(), "unsupported scheme") {
			t.Errorf("Dial(%q) err = %v, want an unsupported-scheme refusal", target, err)
		}
	}
}

// TestUpgradePipelinedHello sends the hello frame in the same write as
// the upgrade request: the server must find it behind the request in
// the handshake's buffer and still answer with its welcome. The same
// server then completes a handshake with Dial, and sees the client's
// close as a clean end of stream.
func TestUpgradePipelinedHello(t *testing.T) {
	ended := make(chan error, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := UpgradeHTTP(w, r)
		if err != nil {
			t.Errorf("UpgradeHTTP: %v", err)
			return
		}
		defer conn.Close()
		rd := NewReader(conn)
		f, err := rd.Next()
		if err != nil || f.Type != FrameHello {
			t.Errorf("server: first frame = %v, %v; want hello", f.Type, err)
			return
		}
		if h, err := DecodeHello(f.Payload); err != nil || h.Device != "d" || h.Token != "t" {
			t.Errorf("server: hello = %+v, %v", h, err)
			return
		}
		conn.Write(AppendFrame(nil, FrameWelcome, AppendWelcome(nil, Welcome{Config: testCfg, ModelGen: 7})))
		for {
			if _, err = rd.Next(); err != nil {
				break
			}
		}
		ended <- err
	}))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := "GET /v1/stream HTTP/1.1\r\nHost: gateway\r\nConnection: Upgrade\r\nUpgrade: " + upgradeToken + "\r\n\r\n"
	if _, err := conn.Write(AppendFrame([]byte(req), FrameHello, AppendHello(nil, Hello{Device: "d", Token: "t"}))); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != upgradeToken {
		t.Fatalf("upgrade answer = %s, Upgrade %q", resp.Status, resp.Header.Get("Upgrade"))
	}
	f, err := NewReader(&upgradedConn{Conn: conn, br: br}).Next()
	if err != nil || f.Type != FrameWelcome {
		t.Fatalf("first frame after 101 = %v, %v; want welcome", f.Type, err)
	}
	conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, ts.URL, "d", "t")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if w := c.Welcome(); w.Config != testCfg || w.ModelGen != 7 {
		t.Fatalf("welcome = %+v", w)
	}
	c.Close()

	for i := 0; i < 2; i++ {
		select {
		case err := <-ended:
			if !errors.Is(err, io.EOF) {
				t.Errorf("server read after client close = %v, want io.EOF", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("server never saw the client close")
		}
	}
}
