package telemetry

import "sync/atomic"

// NumFrameTypes sizes the per-frame-type counter arrays, indexed by
// the raw ADSP frame type byte (internal/stream's FrameType constants,
// currently 0x01..0x0A — 16 leaves headroom for protocol growth
// without a telemetry change). The arrays are indexed by wire byte
// rather than a translated enum so the stream layer records frames
// with one bounds check and no mapping table; internal/stream's tests
// assert every frame type fits.
const NumFrameTypes = 16

// StreamCounters is the streaming ingress's counter set, the ADSP
// sibling of Counters: connection lifecycle, frames by type and
// direction, ring redirects, and the admission batcher's coalescing
// behavior. The zero value is ready to use; StreamCounters must not be
// copied after first use. Owned by whichever layer runs the stream
// listeners (the gateway command), and exported on /metrics as the
// adasense_stream_* series. The exported fields are counted with Add;
// the frame and batcher counters go through their methods.
type StreamCounters struct {
	// ConnsOpened counts accepted stream connections (any transport),
	// ConnsClosed connections ended however they ended, and Redirects
	// devices redirected to their ring owner.
	ConnsOpened atomic.Uint64
	ConnsClosed atomic.Uint64
	Redirects   atomic.Uint64

	framesIn  [NumFrameTypes]atomic.Uint64
	framesOut [NumFrameTypes]atomic.Uint64

	batcherFlushes   atomic.Uint64
	batcherCoalesced atomic.Uint64
}

// FrameIn records one decoded inbound frame of the given raw type.
func (c *StreamCounters) FrameIn(typ uint8) {
	if typ < NumFrameTypes {
		c.framesIn[typ].Add(1)
	}
}

// FrameOut records one written outbound frame of the given raw type.
func (c *StreamCounters) FrameOut(typ uint8) {
	if typ < NumFrameTypes {
		c.framesOut[typ].Add(1)
	}
}

// BatcherFlush records one admission-batcher run that executed n
// coalesced tasks back to back.
func (c *StreamCounters) BatcherFlush(n int) {
	c.batcherFlushes.Add(1)
	if n > 1 {
		c.batcherCoalesced.Add(uint64(n - 1))
	}
}

// StreamSnapshot is a point-in-time copy of the stream counter set.
// FramesIn/FramesOut are indexed by raw frame type byte; index 0 is
// unused (no ADSP frame type is zero).
type StreamSnapshot struct {
	ConnsOpened uint64 `json:"conns_opened"`
	ConnsClosed uint64 `json:"conns_closed"`
	// ConnsLive is the derived gauge: opened minus closed.
	ConnsLive uint64 `json:"conns_live"`

	FramesIn  [NumFrameTypes]uint64 `json:"frames_in"`
	FramesOut [NumFrameTypes]uint64 `json:"frames_out"`
	Redirects uint64                `json:"redirects"`

	BatcherFlushes   uint64 `json:"batcher_flushes"`
	BatcherCoalesced uint64 `json:"batcher_coalesced"`
}

// Snapshot returns a copy of the current counter values, with the same
// per-field atomicity contract as Counters.Snapshot.
func (c *StreamCounters) Snapshot() StreamSnapshot {
	// Closed is read before opened so a connection landing between the
	// two loads cannot make the derived live gauge go negative.
	closed := c.ConnsClosed.Load()
	s := StreamSnapshot{
		ConnsOpened:      c.ConnsOpened.Load(),
		ConnsClosed:      closed,
		Redirects:        c.Redirects.Load(),
		BatcherFlushes:   c.batcherFlushes.Load(),
		BatcherCoalesced: c.batcherCoalesced.Load(),
	}
	if s.ConnsOpened >= s.ConnsClosed {
		s.ConnsLive = s.ConnsOpened - s.ConnsClosed
	}
	for i := range s.FramesIn {
		s.FramesIn[i] = c.framesIn[i].Load()
		s.FramesOut[i] = c.framesOut[i].Load()
	}
	return s
}
