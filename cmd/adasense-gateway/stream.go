package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"adasense"
	"adasense/internal/stream"
	"adasense/internal/telemetry"
)

// streamServer is the ADSP streaming ingress over the same gateway the
// HTTP surface serves: one persistent connection per device, entering
// by an HTTP/1.1 upgrade at GET /v1/stream or at the raw TCP listener
// behind -stream-addr. Past the upgrade both carry the same bytes, so
// ServeConn serves either connection as it is.
//
// Per connection the steady state allocates nothing: frames decode
// through one stream.Reader into reused message structs, replies are
// built in place in a reused write buffer, and the push closure is
// created once at session bind. Pushes from all connections funnel
// through one admission batcher, which perfbench's traced run saw
// coalesce 4×10⁻⁶ of pushes — no measured benefit; it stays only until
// a benchmark change retires stream.admit_wait_us and
// stream.coalesced_ratio. Its queue wait is the "admit" stage of the
// latency histograms, frame-payload decode is the "decode" stage.
// docs/streaming.md is the protocol reference.
type streamServer struct {
	s       *server
	tel     *telemetry.StreamCounters
	batcher *stream.Batcher

	// mu guards conns and closed: Shutdown says goodbye to every live
	// connection exactly once, and connections arriving after shutdown
	// are refused at the door. live counts the session loops still
	// running; Shutdown waits for it to drain.
	mu     sync.Mutex
	conns  map[*streamConn]struct{}
	closed bool
	live   sync.WaitGroup
}

// streamConn is one live ADSP connection's server-side state.
type streamConn struct {
	rwc io.ReadWriteCloser

	// wmu serializes frame writes (the session loop with Shutdown's
	// goodbye); wbuf is the reused frame-encoding buffer.
	wmu  sync.Mutex
	wbuf []byte
}

// streamBatcherQueue bounds tasks admitted but not yet running. One
// connection submits at most one task at a time, so the queue acts as a
// connection-concurrency window, not a per-device buffer.
const streamBatcherQueue = 256

func newStreamServer(s *server) *streamServer {
	ss := &streamServer{
		s:     s,
		tel:   &telemetry.StreamCounters{},
		conns: make(map[*streamConn]struct{}),
	}
	ss.batcher = stream.NewBatcher(runtime.GOMAXPROCS(0), streamBatcherQueue,
		ss.tel.BatcherFlush,
		func(d time.Duration) { s.gw.ObserveStage(telemetry.StageAdmit, d) })
	return ss
}

// handleUpgrade is the GET /v1/stream route: the HTTP/1.1 upgrade to
// ADSP, then the session loop on the hijacked connection. The route
// skips the auth and observe middlewares deliberately — auth is
// in-band (the hello frame carries the bearer token, shared with the
// raw-TCP listener), and the request trace/latency machinery is
// per-request where a stream is one connection serving thousands of
// pushes; the stream's own counters and stage histograms cover it
// instead.
func (ss *streamServer) handleUpgrade(w http.ResponseWriter, r *http.Request) {
	conn, err := stream.UpgradeHTTP(w, r)
	if err != nil {
		return // UpgradeHTTP already answered the request
	}
	ss.ServeConn(conn)
}

// Serve accepts raw-TCP ADSP connections (-stream-addr) until the
// listener closes.
func (ss *streamServer) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go ss.ServeConn(conn)
	}
}

// ServeConn runs one connection's full ADSP lifetime and closes it.
func (ss *streamServer) ServeConn(rwc io.ReadWriteCloser) {
	c := &streamConn{rwc: rwc}
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		ss.writeGoodbye(c, stream.CodeDraining, "gateway draining")
		rwc.Close()
		return
	}
	ss.conns[c] = struct{}{}
	ss.live.Add(1)
	ss.mu.Unlock()
	ss.tel.ConnsOpened.Add(1)
	defer func() {
		ss.mu.Lock()
		delete(ss.conns, c)
		ss.mu.Unlock()
		ss.tel.ConnsClosed.Add(1)
		rwc.Close()
		ss.live.Done()
	}()
	ss.serve(c)
}

// Shutdown refuses new connections, says goodbye to every live one,
// waits for their session loops to exit, and drains the admission
// batcher. Called on the signal path before Gateway.Drain so devices
// see a clean draining close instead of pushes failing against closing
// sessions.
func (ss *streamServer) Shutdown() {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	conns := make([]*streamConn, 0, len(ss.conns))
	for c := range ss.conns {
		conns = append(conns, c)
	}
	ss.mu.Unlock()
	for _, c := range conns {
		ss.writeGoodbye(c, stream.CodeDraining, "gateway draining")
		c.rwc.Close() // unblocks the session loop's blocking read
	}
	// A loop mid-push finishes it through the still-running batcher,
	// then fails its next read on the closed connection.
	ss.live.Wait()
	ss.batcher.Close()
}

// serve runs the handshake and session loop for one connection.
func (ss *streamServer) serve(c *streamConn) {
	gw := ss.s.gw
	rd := stream.NewReader(c.rwc)

	// Handshake: exactly one hello first.
	f, err := rd.Next()
	if err != nil {
		return
	}
	ss.tel.FrameIn(uint8(f.Type))
	if f.Type != stream.FrameHello {
		ss.writeGoodbye(c, stream.CodeProtocol, "expected hello frame")
		return
	}
	hello, err := stream.DecodeHello(f.Payload)
	if err != nil {
		ss.writeGoodbye(c, stream.CodeProtocol, err.Error())
		return
	}
	start := time.Now()
	authorized := gw.Authorize(hello.Token)
	gw.ObserveStage(telemetry.StageAuth, time.Since(start))
	if !authorized {
		ss.writeGoodbye(c, stream.CodeUnauthorized, "missing or invalid bearer token")
		return
	}
	if hello.Device == "" {
		ss.writeGoodbye(c, stream.CodeProtocol, "hello needs a device id")
		return
	}
	if gw.Draining() {
		ss.writeGoodbye(c, stream.CodeDraining, "gateway draining")
		return
	}
	device := hello.Device

	// Ring routing: unlike the HTTP surface the stream never proxies —
	// a persistent connection pinned through a middleman would pay the
	// forward hop on every push, exactly what ADSP exists to avoid. The
	// device is told its owner and re-dials there.
	if !ss.redirectIfNotOwned(c, device) {
		return
	}

	// Bind the session: resume a live one, open one otherwise. Unlike
	// the HTTP push path the stream opens for a standalone gateway too.
	sess, resumed, err := ss.s.bind(device, gw.Open)
	if err != nil {
		var moved *movedError
		switch {
		case errors.As(err, &moved):
			ss.redirect(c, moved.owner)
		case errors.Is(err, adasense.ErrGatewayFull):
			ss.writeGoodbye(c, stream.CodeCapacity, err.Error())
		case errors.Is(err, adasense.ErrGatewayDraining):
			ss.writeGoodbye(c, stream.CodeDraining, err.Error())
		default:
			ss.writeGoodbye(c, stream.CodeInternal, err.Error())
		}
		return
	}

	lastCfg := sess.Config()
	writeFrame(ss, c, stream.FrameWelcome, stream.AppendWelcome,
		stream.Welcome{Config: lastCfg, ModelGen: gw.ModelGeneration(), Resumed: resumed})

	// Session loop state, all reused across pushes: the batch and batch
	// wrapper decode in place, the session appends events into pushed,
	// the ack encodes in place, and the push closure is minted once —
	// the steady-state push path allocates nothing.
	task := stream.NewTask()
	var batch stream.BatchMsg
	var ack stream.EventsMsg
	var ab adasense.Batch
	var pushed []adasense.Event
	var pushErr error
	push := func() { pushed, pushErr = sess.PushAppend(pushed[:0], &ab) }

	for {
		f, err := rd.Next()
		if err != nil {
			// Encoding errors get a reason before the close; a vanished
			// peer (EOF or transport failure) gets silence.
			switch {
			case errors.Is(err, stream.ErrFrameTooLarge):
				ss.writeGoodbye(c, stream.CodeTooLarge, err.Error())
			case errors.Is(err, stream.ErrBadVersion):
				ss.writeGoodbye(c, stream.CodeVersion, err.Error())
			case errors.Is(err, stream.ErrBadMagic), errors.Is(err, stream.ErrBadFlags),
				errors.Is(err, stream.ErrBadType), errors.Is(err, stream.ErrBadChecksum):
				ss.writeGoodbye(c, stream.CodeProtocol, err.Error())
			}
			return
		}
		ss.tel.FrameIn(uint8(f.Type))
		switch f.Type {
		case stream.FrameBatch:
			start := time.Now()
			if err := batch.Decode(f.Payload); err != nil {
				// The envelope CRC passed but the payload is malformed:
				// a broken encoder, not line noise. Close.
				ss.writeGoodbye(c, stream.CodeProtocol, err.Error())
				return
			}
			gw.ObserveStage(telemetry.StageDecode, time.Since(start))
			// Ownership is re-checked per push like the HTTP routed
			// middleware: a rebalance must move the device promptly, not
			// whenever it happens to reconnect.
			if !ss.redirectIfNotOwned(c, device) {
				return
			}
			ab = adasense.Batch{Config: batch.Config, StartAt: batch.StartAt, X: batch.X, Y: batch.Y, Z: batch.Z}
			ss.batcher.Submit(task, push)
			if pushErr != nil {
				if !ss.answerPushError(c, sess, device, batch.Seq, pushErr) {
					return
				}
				continue
			}
			cfg := sess.Config()
			ack.Seq = batch.Seq
			ack.Config = cfg
			if cap(ack.Events) < len(pushed) {
				ack.Events = make([]stream.Event, len(pushed))
			}
			ack.Events = ack.Events[:len(pushed)]
			for i := range pushed {
				ev := &pushed[i]
				ack.Events[i] = stream.Event{
					Activity:      uint8(ev.Classification.Activity),
					Confidence:    ev.Classification.Confidence,
					Config:        ev.Config,
					ConfigChanged: ev.ConfigChanged,
				}
			}
			writeFrame(ss, c, stream.FrameEvents, stream.AppendEvents, &ack)
			lastCfg = cfg
		case stream.FramePing:
			writeFrame(ss, c, stream.FramePong, appendPong, f.Payload)
			// Pings double as the config-push opportunity for idle
			// devices: if the directed config drifted since the last
			// frame the device saw, push the correction.
			if cfg := sess.Config(); cfg != lastCfg {
				writeFrame(ss, c, stream.FrameConfig, stream.AppendConfig, cfg)
				lastCfg = cfg
			}
		case stream.FramePong:
			// Unsolicited pongs are permitted (a one-way heartbeat).
		case stream.FrameGoodbye:
			return
		default:
			ss.writeGoodbye(c, stream.CodeProtocol, "unexpected "+f.Type.String()+" frame")
			return
		}
	}
}

// answerPushError maps a session push failure onto the wire. It
// reports whether the connection survives: per-batch refusals answer
// with an error frame and keep serving, terminal conditions say
// goodbye.
func (ss *streamServer) answerPushError(c *streamConn, sess *adasense.GatewaySession, device string, seq uint64, err error) bool {
	switch {
	case errors.Is(err, adasense.ErrRateLimited):
		writeFrame(ss, c, stream.FrameError, stream.AppendError, stream.ErrorMsg{Seq: seq, Code: stream.CodeRateLimited, Config: sess.Config(), Msg: err.Error()})
		return true
	case errors.Is(err, adasense.ErrSessionClosed), errors.Is(err, adasense.ErrSessionNotFound):
		// Closed underneath the stream — usually a rebalance sweep. If
		// the ring now places the device elsewhere, say so on the way
		// out; the device re-dials the owner and resumes warm (stateful
		// handoff) or cold.
		if !ss.redirectIfNotOwned(c, device) {
			return false
		}
		ss.writeGoodbye(c, stream.CodeSessionClosed, err.Error())
		return false
	case errors.Is(err, adasense.ErrGatewayDraining):
		ss.writeGoodbye(c, stream.CodeDraining, err.Error())
		return false
	default:
		// Config mismatch, invalid samples and the like: refuse the
		// batch, direct the config the device must resample at
		// (self-healing).
		writeFrame(ss, c, stream.FrameError, stream.AppendError, stream.ErrorMsg{Seq: seq, Code: stream.CodeBadBatch, Config: sess.Config(), Msg: err.Error()})
		return true
	}
}

// redirectIfNotOwned reports whether the device belongs on this
// replica. If not, it redirects the device to its owner; the caller
// returns.
func (ss *streamServer) redirectIfNotOwned(c *streamConn, device string) bool {
	if ss.s.cluster == nil {
		return true
	}
	owner, local := ss.s.cluster.Route(device)
	if !local {
		ss.redirect(c, owner)
	}
	return local
}

// redirect names the device's owning replica in a redirect frame and
// says goodbye with CodeRedirect.
func (ss *streamServer) redirect(c *streamConn, owner adasense.Replica) {
	ss.tel.Redirects.Add(1)
	writeFrame(ss, c, stream.FrameRedirect, stream.AppendRedirect,
		stream.Redirect{ReplicaID: owner.ID, ReplicaURL: owner.URL})
	ss.writeGoodbye(c, stream.CodeRedirect, "device is owned by "+owner.ID)
}

// writeFrame encodes one frame of type t, its payload appended by
// appendPayload, into c's reused buffer and writes it under the write
// lock. Callers pass the stream.AppendX function itself, never a
// capturing closure, so the steady-state push stays allocation-free.
func writeFrame[T any](ss *streamServer, c *streamConn, t stream.FrameType, appendPayload func([]byte, T) []byte, v T) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = appendPayload(stream.BeginFrame(c.wbuf[:0], t), v)
	c.wbuf = stream.EndFrame(c.wbuf, 0)
	if _, err := c.rwc.Write(c.wbuf); err == nil {
		ss.tel.FrameOut(uint8(t))
	}
}

// appendPong echoes a ping's payload.
func appendPong(dst, payload []byte) []byte { return append(dst, payload...) }

// writeGoodbye says goodbye with code and a human-readable reason.
func (ss *streamServer) writeGoodbye(c *streamConn, code stream.CloseCode, msg string) {
	writeFrame(ss, c, stream.FrameGoodbye, stream.AppendGoodbye, stream.Goodbye{Code: code, Msg: msg})
}

// writeMetrics appends the adasense_stream_* series to a /metrics
// exposition — the streaming counterpart of Gateway.WriteMetrics,
// emitted by handleMetrics after the gateway's own series.
func (ss *streamServer) writeMetrics(e *telemetry.Encoder) {
	snap := ss.tel.Snapshot()
	e.Counter("adasense_stream_connections_total",
		"ADSP stream connections accepted since process start.", snap.ConnsOpened)
	e.Gauge("adasense_stream_connections",
		"ADSP stream connections currently live.", float64(snap.ConnsLive))
	frames := func(counts [telemetry.NumFrameTypes]uint64) []telemetry.CounterSample {
		samples := make([]telemetry.CounterSample, 0, int(stream.FrameGoodbye))
		for t := stream.FrameHello; t <= stream.FrameGoodbye; t++ {
			samples = append(samples, telemetry.CounterSample{LabelValue: t.String(), V: counts[t]})
		}
		return samples
	}
	e.CounterVec("adasense_stream_frames_in_total",
		"Decoded inbound ADSP frames by type.", "type", frames(snap.FramesIn))
	e.CounterVec("adasense_stream_frames_out_total",
		"Written outbound ADSP frames by type.", "type", frames(snap.FramesOut))
	e.Counter("adasense_stream_redirects_total",
		"Stream connections redirected to the device's owning replica.", snap.Redirects)
	e.Counter("adasense_stream_batcher_flushes_total",
		"Admission batcher runs (each executes one or more coalesced pushes).", snap.BatcherFlushes)
	e.Counter("adasense_stream_batcher_coalesced_total",
		"Pushes that rode an already-running batcher flush instead of starting one.", snap.BatcherCoalesced)
	e.Gauge("adasense_stream_batcher_occupancy",
		"Pushes admitted to the batcher queue but not yet executing.", float64(ss.batcher.Depth()))
}
