package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"adasense"
	"adasense/internal/sensor"
	"adasense/internal/stream"
)

// stream_push: 2 devices, each on its own raw-TCP ADSP connection, push
// 2-s batches at whatever config the gateway directs, each waiting for
// its ack before the next batch.
const (
	streamDevices = 2
	// streamSlots is the length of each device's pre-encoded signal
	// cycle; the device's slot index wraps past it.
	streamSlots = 512
)

// streamDev is one device's pre-encoded inputs, its connection and what
// it sent and received.
type streamDev struct {
	dev *device
	// frames[slot][state] is the batch frame for signal slot at the
	// Pareto state: the gateway decides which state comes next, so
	// every state is encoded ahead of the clock.
	frames [][][]byte

	conn net.Conn
	rd   *stream.Reader
	cfg  sensor.Config
	ack  stream.EventsMsg

	pushes  []streamPush
	events  []evRec
	samples []sample
	tally   *tally
	err     error
}

// streamPush is one push as sent and acknowledged.
type streamPush struct {
	slot    uint32
	state   uint8
	ok      bool
	cfg     sensor.Config // directed config in the ack or error frame
	evStart uint32        // index of the push's first event in events
	evCount uint8
}

// buildStreamDevs samples and encodes every device's batches.
func buildStreamDevs(seed uint64, tr *tracer) ([]*streamDev, error) {
	fleet, err := newFleet(streamDevices, seed)
	if err != nil {
		return nil, err
	}
	devs := make([]*streamDev, len(fleet))
	for i, d := range fleet {
		sd := &streamDev{dev: d, frames: make([][][]byte, streamSlots)}
		for slot := range sd.frames {
			sd.frames[slot] = make([][]byte, len(states))
			for si, cfg := range states {
				b := d.sample(cfg, slot, tr)
				m := stream.BatchMsg{Seq: uint64(slot + 1), Config: cfg, StartAt: b.StartAt, X: b.X, Y: b.Y, Z: b.Z}
				f := stream.BeginFrame(nil, stream.FrameBatch)
				f = stream.AppendBatch(f, &m)
				sd.frames[slot][si] = stream.EndFrame(f, 0)
			}
		}
		devs[i] = sd
	}
	return devs, nil
}

// connect dials the gateway's ADSP listener and completes the handshake,
// which opens the device's session.
func (sd *streamDev) connect(addr string, spin bool) error {
	c, err := dial(addr, spin)
	if err != nil {
		return err
	}
	hello := stream.AppendFrame(nil, stream.FrameHello, stream.AppendHello(nil, stream.Hello{Device: sd.dev.id, Token: token}))
	if _, err := c.Write(hello); err != nil {
		c.Close()
		return err
	}
	rd := stream.NewReader(c)
	f, err := rd.Next()
	if err != nil {
		c.Close()
		return fmt.Errorf("device %s: reading the welcome: %w", sd.dev.id, err)
	}
	if f.Type != stream.FrameWelcome {
		c.Close()
		return fmt.Errorf("device %s: %s frame instead of welcome", sd.dev.id, f.Type)
	}
	w, err := stream.DecodeWelcome(f.Payload)
	if err != nil {
		c.Close()
		return err
	}
	sd.conn, sd.rd, sd.cfg = c, rd, w.Config
	return nil
}

// push sends one pre-encoded batch and reads frames until its ack.
func (sd *streamDev) push(slot int) (streamPush, error) {
	st, err := stateIndex(sd.cfg)
	if err != nil {
		return streamPush{}, err
	}
	p := streamPush{slot: uint32(slot), state: uint8(st), evStart: uint32(len(sd.events))}
	if _, err := sd.conn.Write(sd.frames[slot][st]); err != nil {
		return p, err
	}
	for {
		f, err := sd.rd.Next()
		if err != nil {
			return p, err
		}
		switch f.Type {
		case stream.FrameEvents:
			if err := sd.ack.Decode(f.Payload); err != nil {
				return p, err
			}
			if sd.ack.Seq != uint64(slot+1) {
				return p, fmt.Errorf("ack for batch %d, sent %d", sd.ack.Seq, slot+1)
			}
			for _, ev := range sd.ack.Events {
				sd.events = append(sd.events, evRec{ev.Activity, ev.Confidence, ev.Config, ev.ConfigChanged})
			}
			p.ok, p.cfg, p.evCount = true, sd.ack.Config, uint8(len(sd.ack.Events))
			sd.cfg = p.cfg
			return p, nil
		case stream.FrameError:
			e, err := stream.DecodeError(f.Payload)
			if err != nil {
				return p, err
			}
			p.cfg = e.Config
			sd.cfg = p.cfg
			return p, nil
		case stream.FrameConfig:
			if sd.cfg, err = stream.DecodeConfig(f.Payload); err != nil {
				return p, err
			}
		case stream.FramePing:
			pong := stream.AppendFrame(nil, stream.FramePong, f.Payload)
			if _, err := sd.conn.Write(pong); err != nil {
				return p, err
			}
		default:
			return p, fmt.Errorf("unexpected %s frame", f.Type)
		}
	}
}

// run pushes until deadline, recording every push; the signal slots
// continue where the previous run stopped.
func (sd *streamDev) run(start, deadline time.Time) {
	sd.samples = sd.samples[:0]
	for n := len(sd.pushes); ; n++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		p, err := sd.push(n % streamSlots)
		t1 := time.Now()
		sd.tally.record("push", err == nil && p.ok)
		if err != nil {
			sd.err = fmt.Errorf("device %s: %w", sd.dev.id, err)
			return
		}
		sd.pushes = append(sd.pushes, p)
		if p.ok {
			sd.samples = append(sd.samples, sample{int64(t1.Sub(start)), int64(t1.Sub(t0))})
		}
	}
}

// streamClient is stream_push's device side: one connection per device.
type streamClient struct{ devs []*streamDev }

func (c *streamClient) start(e *env) (*gatewayProc, error) { return startGateway(e, true) }

func (c *streamClient) connect(gw *gatewayProc, t *tally) error {
	var wg sync.WaitGroup
	errs := make([]error, len(c.devs))
	for i, sd := range c.devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sd.connect(gw.streamAddr, gw.pinned)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		t.record("open", err == nil)
	}
	return errors.Join(errs...)
}

func (c *streamClient) disconnect() {
	for _, sd := range c.devs {
		if sd.conn != nil {
			sd.conn.Close()
		}
	}
}

func (c *streamClient) finish(*gatewayProc, *tally) error { return nil }

func (c *streamClient) drive(start, deadline time.Time, t *tally) ([]sample, error) {
	var wg sync.WaitGroup
	for _, sd := range c.devs {
		sd.tally = newTally()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sd.run(start, deadline)
		}()
	}
	wg.Wait()
	var all []sample
	for _, sd := range c.devs {
		if sd.err != nil {
			return nil, sd.err
		}
		all = append(all, sd.samples...)
		t.merge(sd.tally)
	}
	return all, nil
}

// verifyStream replays every acknowledged batch, in order, into a session
// of an in-process adasense.Gateway serving the same model and checks
// that it produces the events and directed configs the device received.
func verifyStream(sys *adasense.System, devs []*streamDev) error {
	gw, err := adasense.NewGateway(sys)
	if err != nil {
		return err
	}
	var m stream.BatchMsg
	for _, sd := range devs {
		sess, err := gw.Open(sd.dev.id)
		if err != nil {
			return err
		}
		for i, p := range sd.pushes {
			if !p.ok {
				continue // refused by the gateway: never applied
			}
			f, _, err := stream.DecodeFrame(sd.frames[p.slot][p.state])
			if err != nil {
				return err
			}
			if err := m.Decode(f.Payload); err != nil {
				return err
			}
			b := adasense.Batch{Config: m.Config, StartAt: m.StartAt, X: m.X, Y: m.Y, Z: m.Z}
			events, err := sess.Push(&b)
			if err != nil {
				return fmt.Errorf("device %s push %d: replay refused a batch the gateway acked: %w", sd.dev.id, i, err)
			}
			got := sd.events[p.evStart : p.evStart+uint32(p.evCount)]
			if !sameEvents(got, events) || p.cfg != sess.Config() {
				return fmt.Errorf("device %s push %d: gateway answered %d events at %s, replay gives %d events at %s",
					sd.dev.id, i, len(got), p.cfg.Name(), len(events), sess.Config().Name())
			}
		}
	}
	return nil
}

func runStreamPush(e *env) (*result, error) {
	devs, err := buildStreamDevs(e.seed, nil)
	if err != nil {
		return nil, err
	}
	r, err := servingPhase(e, &streamClient{devs}, e.dur, setupRounds, false)
	if err != nil {
		return nil, err
	}
	res := &result{tally: r.tally, correct: true}
	if err := verifyStream(e.sys, devs); err != nil {
		fmt.Fprintln(e.out, "stream_push correctness gate FAILED:", err)
		res.correct = false
	} else {
		fmt.Fprintf(e.out, "stream_push correctness gate passed: %d pushes replayed in process\n", r.stats.n)
	}
	reportServing(e, "stream_push", r, res)
	mix := make([]int, len(states))
	total := 0
	for _, sd := range devs {
		for _, p := range sd.pushes {
			mix[p.state]++
			total++
		}
	}
	fmt.Fprint(e.out, "stream_push pushes per Pareto state:")
	for i, n := range mix {
		fmt.Fprintf(e.out, " %s %.1f%%", states[i].Name(), 100*float64(n)/float64(max(total, 1)))
	}
	fmt.Fprintln(e.out)
	return res, nil
}
