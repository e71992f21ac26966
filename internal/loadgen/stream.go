package loadgen

import (
	"context"
	"errors"

	"adasense/internal/sensor"
	"adasense/internal/stream"
)

// streamTransport drives the ADSP streaming ingress: each device holds
// one persistent connection (d.sc) and pushes binary batch frames over
// it. Outcomes are mapped onto the HTTP status vocabulary the runner
// already classifies, so the retry, re-open and accounting logic is
// shared verbatim with the JSON transport:
//
//	events ack                     -> 200
//	bad-batch refusal              -> 409 (re-sync config, resend)
//	rate-limit refusal / capacity  -> 429
//	redirect / session closed      -> 410 (re-dial, at the named owner)
//	draining                       -> 503
//	unauthorized                   -> 401
//	other goodbye                  -> 500
//
// A redirect goodbye retargets d.streamTarget at the owner's URL, its
// HTTP base, where the device re-enters by upgrade — a raw-TCP device
// moves to the upgrade too, since the owner's -stream-addr is not in
// the frame.
type streamTransport struct {
	token string
}

func (t *streamTransport) open(ctx context.Context, d *device) (string, int, error) {
	if d.sc != nil {
		// The connection outlives the session flag: an open on a live
		// stream is just a config re-sync.
		return d.sc.Config().Name(), 200, nil
	}
	// A redirect at the door is half of all first dials on a multi-
	// replica target list — follow it inline (bounded, in case two
	// replicas disagree mid-rebalance) so only unresolved refusals
	// surface to the retry loop.
	for hop := 0; ; hop++ {
		c, err := stream.Dial(ctx, d.streamTarget, d.id, t.token)
		if err == nil {
			d.sc = c
			if c.Welcome().Resumed {
				return c.Config().Name(), 200, nil
			}
			return c.Config().Name(), 201, nil
		}
		var g *stream.GoodbyeError
		if !errors.As(err, &g) {
			return "", 0, err
		}
		if g.Code == stream.CodeRedirect && g.Redirect != nil &&
			g.Redirect.ReplicaURL != "" && hop < 2 {
			d.streamTarget = g.Redirect.ReplicaURL
			continue
		}
		return "", t.goodbye(d, g), nil
	}
}

func (t *streamTransport) get(ctx context.Context, d *device) (string, int, error) {
	return t.open(ctx, d)
}

func (t *streamTransport) push(ctx context.Context, d *device, b *sensor.Batch) (string, int, error) {
	if d.sc == nil {
		// The connection died on a non-reopening outcome (drain, rate
		// limit): re-dial before pushing.
		if cfg, status, err := t.open(ctx, d); status != 200 && status != 201 {
			return cfg, status, err
		}
	}
	ack, err := d.sc.Push(b)
	if err == nil {
		return ack.Config.Name(), 200, nil
	}
	var se *stream.ServerError
	if errors.As(err, &se) {
		// Per-batch refusal: the connection survives and the directed
		// config has already been applied to the client.
		if se.Code == stream.CodeRateLimited {
			return d.sc.Config().Name(), 429, nil
		}
		return d.sc.Config().Name(), 409, nil
	}
	var g *stream.GoodbyeError
	if errors.As(err, &g) {
		return "", t.goodbye(d, g), nil
	}
	d.sc.Close()
	d.sc = nil
	return "", 0, err
}

// goodbye maps a server goodbye onto a pseudo HTTP status and drops the
// dead connection. A redirect names the owning replica; the device
// follows it on the next dial.
func (t *streamTransport) goodbye(d *device, g *stream.GoodbyeError) int {
	if d.sc != nil {
		d.sc.Close()
		d.sc = nil
	}
	switch g.Code {
	case stream.CodeRedirect:
		if g.Redirect != nil && g.Redirect.ReplicaURL != "" {
			d.streamTarget = g.Redirect.ReplicaURL
		}
		return 410
	case stream.CodeSessionClosed, stream.CodeNotOwned:
		return 410
	case stream.CodeDraining:
		return 503
	case stream.CodeRateLimited, stream.CodeCapacity:
		return 429
	case stream.CodeUnauthorized:
		return 401
	default:
		return 500
	}
}

func (t *streamTransport) close(d *device) {
	if d.sc != nil {
		d.sc.Close()
		d.sc = nil
	}
}

var _ transport = (*streamTransport)(nil)
