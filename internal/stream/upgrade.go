package stream

// ADSP on the gateway's HTTP port: a plain HTTP/1.1 protocol upgrade
// (RFC 9110 §7.8) to the token "adsp". The device sends GET /v1/stream
// with "Connection: Upgrade" and "Upgrade: adsp", the gateway answers
// 101 Switching Protocols, and from then on the connection carries raw
// ADSP frames, byte for byte what the raw-TCP listener carries. TLS
// stays the job of the fleet's ingress proxy, as for the HTTP surface.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
)

// upgradeToken is the protocol token a device names in its Upgrade
// header, and the gateway in its 101 answer.
const upgradeToken = "adsp"

// upgradedConn is a connection past its upgrade handshake. The bufio
// reader that parsed the handshake may already hold ADSP bytes the
// peer pipelined behind it; reads drain those before the socket.
type upgradedConn struct {
	net.Conn
	br *bufio.Reader
}

func (c *upgradedConn) Read(p []byte) (int, error) {
	if c.br.Buffered() > 0 {
		return c.br.Read(p) // copies buffered bytes only, never reads the socket
	}
	return c.Conn.Read(p)
}

// headerHasToken reports whether a comma-separated header contains the
// token, case-insensitively (Connection: keep-alive, Upgrade).
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// UpgradeHTTP switches an HTTP request to ADSP and hands back the
// hijacked connection. A request that does not ask for the "adsp"
// upgrade gets 426 Upgrade Required naming it; a ResponseWriter that
// cannot be hijacked (HTTP/2) gets 500. On failure UpgradeHTTP has
// answered the request itself; the caller must not touch w either way.
func UpgradeHTTP(w http.ResponseWriter, r *http.Request) (net.Conn, error) {
	if !headerHasToken(r.Header, "Connection", "upgrade") || !headerHasToken(r.Header, "Upgrade", upgradeToken) {
		w.Header().Set("Connection", "Upgrade")
		w.Header().Set("Upgrade", upgradeToken)
		http.Error(w, "this route speaks ADSP only: send Connection: Upgrade and Upgrade: "+upgradeToken,
			http.StatusUpgradeRequired)
		return nil, fmt.Errorf("stream: request does not ask for the %s upgrade", upgradeToken)
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be hijacked", http.StatusInternalServerError)
		return nil, fmt.Errorf("stream: %T is not an http.Hijacker", w)
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "hijack failed", http.StatusInternalServerError)
		return nil, fmt.Errorf("stream: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + upgradeToken + "\r\n\r\n"
	if _, err := io.WriteString(conn, resp); err != nil {
		conn.Close()
		return nil, fmt.Errorf("stream: write 101 answer: %w", err)
	}
	return &upgradedConn{Conn: conn, br: brw.Reader}, nil
}

// upgradeClient dials the upgrade. It keeps no idle connections (a
// refused upgrade's connection closes with its answer) and consults no
// proxy environment, like the raw-TCP dial.
var upgradeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// dialUpgrade dials an http:// target and upgrades it to ADSP, at
// /v1/stream unless the URL names another path. The context bounds the
// dial and the handshake. On a 101 the response body is the connection,
// reading through the handshake's bufio reader first.
func dialUpgrade(ctx context.Context, target string) (io.ReadWriteCloser, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %q: %w", target, err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("stream: dial %q: unsupported scheme %q (want tcp:// or http://; TLS is terminated in front of the gateway)", target, u.Scheme)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/v1/stream"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %q: %w", target, err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", upgradeToken)
	resp, err := upgradeClient.Do(req)
	if err != nil {
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok || !headerHasToken(resp.Header, "Upgrade", upgradeToken) {
		resp.Body.Close()
		return nil, fmt.Errorf("stream: upgrade at %s refused: %s", u, resp.Status)
	}
	return rwc, nil
}
