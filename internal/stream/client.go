package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"

	"adasense/internal/sensor"
)

// Client is the device side of one ADSP connection: dial, hello,
// welcome, then one push at a time. It is the shared wire driver for
// adasense-loadgen's stream transport and the e2e tests, and it holds
// the same zero-alloc discipline as the server: frames encode into a
// reused write buffer and acknowledgements decode into a reused
// EventsMsg.
//
// A Client is not safe for concurrent use — ADSP serializes a device's
// pushes by design (the next batch follows the previous batch's ack).
type Client struct {
	rwc io.ReadWriteCloser
	rd  *Reader

	device  string
	seq     uint64
	cfg     sensor.Config
	welcome Welcome

	wbuf   []byte
	events EventsMsg
}

// ServerError reports a per-batch refusal (an ADSP error frame); the
// connection remains usable. The embedded message's Config is the
// configuration the server directed — Dial/Push apply it before
// returning, so the next sampled batch self-heals a config mismatch.
type ServerError struct {
	ErrorMsg
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("stream: server refused batch %d: %s (%s)", e.Seq, e.Msg, e.Code)
}

// GoodbyeError reports the server closing the connection with a
// goodbye frame. Redirect is non-nil when a redirect frame preceded
// the goodbye (Code == CodeRedirect): it names the replica that owns
// the device, and the caller re-dials there.
type GoodbyeError struct {
	Code     CloseCode
	Msg      string
	Redirect *Redirect
}

func (e *GoodbyeError) Error() string {
	if e.Redirect != nil {
		return fmt.Sprintf("stream: server closed: %s (%s) -> %s", e.Msg, e.Code, e.Redirect.ReplicaURL)
	}
	return fmt.Sprintf("stream: server closed: %s (%s)", e.Msg, e.Code)
}

// Dial connects to an ADSP endpoint and completes the hello/welcome
// handshake for the given device. The target selects the transport by
// scheme: "http://" upgrades the gateway's HTTP port to ADSP at
// /v1/stream (a path already present in the URL is kept), "tcp://"
// dials the gateway's raw -stream-addr listener. Both carry the same
// bytes. Auth is in-band: the bearer token rides in the hello frame.
//
// A device id or token longer than the wire's 1024-byte string bound
// is an error before anything is dialed. A refusal by goodbye frame
// (draining, unauthorized, redirect, capacity) returns a *GoodbyeError
// with the connection already closed.
func Dial(ctx context.Context, target, device, token string) (*Client, error) {
	if len(device) > maxStringBytes || len(token) > maxStringBytes {
		return nil, fmt.Errorf("stream: device id (%d bytes) or token (%d bytes) exceeds the %d-byte limit",
			len(device), len(token), maxStringBytes)
	}
	rwc, err := dialTransport(ctx, target)
	if err != nil {
		return nil, err
	}
	c := &Client{rwc: rwc, rd: NewReader(rwc), device: device}
	c.wbuf = AppendFrame(c.wbuf[:0], FrameHello, AppendHello(nil, Hello{Device: device, Token: token}))
	if _, err := rwc.Write(c.wbuf); err != nil {
		rwc.Close()
		return nil, err
	}
	var redirect *Redirect
	for {
		f, err := c.rd.Next()
		if err != nil {
			rwc.Close()
			return nil, err
		}
		switch f.Type {
		case FrameWelcome:
			w, err := DecodeWelcome(f.Payload)
			if err != nil {
				rwc.Close()
				return nil, err
			}
			c.welcome = w
			c.cfg = w.Config
			return c, nil
		case FrameRedirect:
			r, err := DecodeRedirect(f.Payload)
			if err != nil {
				rwc.Close()
				return nil, err
			}
			redirect = &r
		case FrameGoodbye:
			g, _ := DecodeGoodbye(f.Payload)
			rwc.Close()
			return nil, &GoodbyeError{Code: g.Code, Msg: g.Msg, Redirect: redirect}
		case FramePing:
			if err := c.writeFrame(FramePong, f.Payload); err != nil {
				rwc.Close()
				return nil, err
			}
		default:
			rwc.Close()
			return nil, fmt.Errorf("%w: %s frame before welcome", errPayload, f.Type)
		}
	}
}

// dialTransport opens the byte stream behind an ADSP target URL.
func dialTransport(ctx context.Context, target string) (io.ReadWriteCloser, error) {
	if rest, ok := strings.CutPrefix(target, "tcp://"); ok {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", rest)
	}
	return dialUpgrade(ctx, target)
}

// Welcome returns the handshake's welcome message.
func (c *Client) Welcome() Welcome { return c.welcome }

// Config returns the sensor configuration the server currently directs
// this device to sample at, updated by every welcome, events ack,
// error frame and config push.
func (c *Client) Config() sensor.Config { return c.cfg }

// Device returns the device id this connection authenticated as.
func (c *Client) Device() string { return c.device }

func (c *Client) writeFrame(typ FrameType, payload []byte) error {
	c.wbuf = AppendFrame(c.wbuf[:0], typ, payload)
	_, err := c.rwc.Write(c.wbuf)
	return err
}

// Push sends one batch and blocks for its acknowledgement. The
// returned EventsMsg is reused by the next Push. Error cases:
//
//   - *ServerError: the batch was refused (rate limit, config
//     mismatch); the connection stays open and the directed config has
//     been applied.
//   - *GoodbyeError: the server closed the connection (drain,
//     redirect, session closed); re-dial — at Redirect.ReplicaURL if
//     set — and resend the batch.
//   - anything else: transport failure; the connection is unusable.
//
// A batch that is empty, ragged or larger than one frame carries is
// refused before anything is written; the connection stays usable.
func (c *Client) Push(b *sensor.Batch) (*EventsMsg, error) {
	if n := len(b.X); n == 0 || n > maxBatchSamples || len(b.Y) != n || len(b.Z) != n {
		return nil, fmt.Errorf("stream: batch of %d/%d/%d samples per axis (want equal lengths in 1..%d)",
			len(b.X), len(b.Y), len(b.Z), maxBatchSamples)
	}
	c.seq++
	m := BatchMsg{Seq: c.seq, Config: b.Config, StartAt: b.StartAt, X: b.X, Y: b.Y, Z: b.Z}
	c.wbuf = BeginFrame(c.wbuf[:0], FrameBatch)
	c.wbuf = AppendBatch(c.wbuf, &m)
	c.wbuf = EndFrame(c.wbuf, 0)
	if _, err := c.rwc.Write(c.wbuf); err != nil {
		return nil, err
	}
	var redirect *Redirect
	for {
		f, err := c.rd.Next()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case FrameEvents:
			if err := c.events.Decode(f.Payload); err != nil {
				return nil, err
			}
			if c.events.Seq != c.seq {
				return nil, fmt.Errorf("%w: events ack for batch %d, expected %d", errPayload, c.events.Seq, c.seq)
			}
			c.cfg = c.events.Config
			return &c.events, nil
		case FrameError:
			e, err := DecodeError(f.Payload)
			if err != nil {
				return nil, err
			}
			c.cfg = e.Config
			return nil, &ServerError{ErrorMsg: e}
		case FrameConfig:
			cfg, err := DecodeConfig(f.Payload)
			if err != nil {
				return nil, err
			}
			c.cfg = cfg
		case FrameRedirect:
			r, err := DecodeRedirect(f.Payload)
			if err != nil {
				return nil, err
			}
			redirect = &r
		case FrameGoodbye:
			g, _ := DecodeGoodbye(f.Payload)
			c.rwc.Close()
			return nil, &GoodbyeError{Code: g.Code, Msg: g.Msg, Redirect: redirect}
		case FramePing:
			if err := c.writeFrame(FramePong, f.Payload); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unexpected %s frame in push exchange", errPayload, f.Type)
		}
	}
}

// Ping round-trips a liveness probe, returning an error if the echoed
// payload does not match. A config push interleaved with the pong is
// applied on the way.
func (c *Client) Ping() error {
	token := [8]byte{'a', 'd', 's', 'p', 'p', 'i', 'n', 'g'}
	if err := c.writeFrame(FramePing, token[:]); err != nil {
		return err
	}
	var redirect *Redirect
	for {
		f, err := c.rd.Next()
		if err != nil {
			return err
		}
		switch f.Type {
		case FramePong:
			if string(f.Payload) != string(token[:]) {
				return fmt.Errorf("%w: pong echo mismatch", errPayload)
			}
			return nil
		case FrameConfig:
			cfg, err := DecodeConfig(f.Payload)
			if err != nil {
				return err
			}
			c.cfg = cfg
		case FrameRedirect:
			r, err := DecodeRedirect(f.Payload)
			if err != nil {
				return err
			}
			redirect = &r
		case FrameGoodbye:
			g, _ := DecodeGoodbye(f.Payload)
			c.rwc.Close()
			return &GoodbyeError{Code: g.Code, Msg: g.Msg, Redirect: redirect}
		case FramePing:
			if err := c.writeFrame(FramePong, f.Payload); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unexpected %s frame in ping exchange", errPayload, f.Type)
		}
	}
}

// Close says goodbye (best effort) and closes the connection.
func (c *Client) Close() error {
	c.writeFrame(FrameGoodbye, AppendGoodbye(nil, Goodbye{Code: CodeOK}))
	return c.rwc.Close()
}

// IsGoodbye reports whether err is a server goodbye with the given
// code, unwrapping as needed.
func IsGoodbye(err error, code CloseCode) bool {
	var g *GoodbyeError
	return errors.As(err, &g) && g.Code == code
}
