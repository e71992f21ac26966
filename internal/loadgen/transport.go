package loadgen

import (
	"context"

	"adasense/internal/sensor"
)

// Transport names accepted by Config.Transport.
const (
	// TransportHTTP drives the request/response JSON surface: one POST
	// per push. The default.
	TransportHTTP = "http"
	// TransportStream drives the ADSP streaming ingress: one persistent
	// binary connection per device (an HTTP upgrade at /v1/stream for
	// http:// targets, the raw-TCP listener for tcp:// targets), pushes
	// as batch frames.
	TransportStream = "stream"
)

// transport is the wire driver behind the runner: how a device opens
// its session, re-syncs its config, and pushes one batch. Every method
// reports the outcome in the HTTP status vocabulary the runner's retry
// and accounting logic classifies (a stream transport maps its goodbye
// codes onto it), with err reserved for transport-level failures.
// Callers hold d.mu.
type transport interface {
	open(ctx context.Context, d *device) (cfgName string, status int, err error)
	get(ctx context.Context, d *device) (cfgName string, status int, err error)
	push(ctx context.Context, d *device, b *sensor.Batch) (cfgName string, status int, err error)
	// close releases any per-device connection state at end of run.
	close(d *device)
}

// httpTransport adapts wireClient to the transport interface.
type httpTransport struct {
	c *wireClient
}

func (t *httpTransport) open(ctx context.Context, d *device) (string, int, error) {
	return t.c.open(ctx, d.target, d.id)
}

func (t *httpTransport) get(ctx context.Context, d *device) (string, int, error) {
	return t.c.get(ctx, d.target, d.id)
}

func (t *httpTransport) push(ctx context.Context, d *device, b *sensor.Batch) (string, int, error) {
	return t.c.push(ctx, d.target, d.id, marshalBatch(b))
}

func (t *httpTransport) close(*device) {}
