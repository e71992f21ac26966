package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"adasense"
	"adasense/internal/sensor"
)

// http_fleet: 256 devices from the standard cohort mix over 2 keep-alive
// HTTP/JSON connections, auth and a per-device rate limit on. Like
// adasense-loadgen (internal/loadgen/run.go), every session is opened
// before the clock and held for the whole timed phase, which therefore
// times pushes only. After it, /metrics is scraped httpScrapes times and
// every session is closed and reopened once; those operations are timed
// on their own and stay out of the push figures.
const (
	httpDevices = 256
	httpConns   = 2
	// httpSlots is the length of each device's pre-encoded signal
	// cycle; the device's push count wraps past it.
	httpSlots   = 16
	httpScrapes = 64
)

// httpGatewayFlags set the per-device rate limit far above the offered
// rate (a device pushes a few times per second), so no push is refused.
var httpGatewayFlags = []string{"-device-rps", "1000", "-device-burst", "1000"}

// Client copies of the gateway's wire shapes.
type batchJSON struct {
	Config  string    `json:"config"`
	StartAt float64   `json:"start_at,omitempty"`
	X       []float64 `json:"x"`
	Y       []float64 `json:"y"`
	Z       []float64 `json:"z"`
}

type eventJSON struct {
	Activity      string  `json:"activity"`
	Confidence    float64 `json:"confidence"`
	Config        string  `json:"config"`
	ConfigChanged bool    `json:"config_changed"`
}

type pushResponse struct {
	Events []eventJSON `json:"events"`
	Config string      `json:"config"`
}

type sessionJSON struct {
	ID     string `json:"id"`
	Config string `json:"config"`
}

// httpDev is one device's pre-built requests and its place in the loop.
type httpDev struct {
	dev      *device
	openReq  []byte
	closeReq []byte
	// pushReq[slot][state] and batches[slot][state] are the push of
	// signal slot at the Pareto state: the gateway decides which state
	// comes next, so every state is encoded ahead of the clock.
	pushReq   [httpSlots][][]byte
	batches   [httpSlots][]*sensor.Batch
	initCfg   string // a fresh session's config
	initState int    // and its Pareto state
	state     int    // Pareto state the gateway directed last
	n         int    // pushes into the current session
}

// rawRequest renders one HTTP/1.1 request.
func rawRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: perfbench\r\nAuthorization: Bearer %s\r\n", method, path, token)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

var scrapeReq = []byte("GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")

// buildHTTPDevs samples every device's batches at every Pareto state and
// encodes every request.
func buildHTTPDevs(sys *adasense.System, seed uint64, tr *tracer) ([]*httpDev, error) {
	fleet, err := newFleet(httpDevices, seed)
	if err != nil {
		return nil, err
	}
	gw, err := adasense.NewGateway(sys)
	if err != nil {
		return nil, err
	}
	fresh, err := gw.Open("fresh")
	if err != nil {
		return nil, err
	}
	initCfg := fresh.Config().Name()
	initState, err := stateIndex(fresh.Config())
	if err != nil {
		return nil, err
	}
	devs := make([]*httpDev, len(fleet))
	for i, d := range fleet {
		hd := &httpDev{dev: d, initCfg: initCfg, initState: initState}
		openBody, _ := json.Marshal(struct {
			ID string `json:"id"`
		}{d.id})
		hd.openReq = rawRequest("POST", "/v1/sessions", openBody)
		hd.closeReq = rawRequest("DELETE", "/v1/sessions/"+d.id, nil)
		for slot := range hd.pushReq {
			hd.pushReq[slot] = make([][]byte, len(states))
			hd.batches[slot] = make([]*sensor.Batch, len(states))
			for si, cfg := range states {
				b := d.sample(cfg, slot, tr)
				body, err := json.Marshal(batchJSON{Config: b.Config.Name(), StartAt: b.StartAt, X: b.X, Y: b.Y, Z: b.Z})
				if err != nil {
					return nil, err
				}
				hd.pushReq[slot][si] = rawRequest("POST", "/v1/sessions/"+d.id+"/push", body)
				hd.batches[slot][si] = b
			}
		}
		devs[i] = hd
	}
	return devs, nil
}

// configKey precedes the directed config in a push response; the
// top-level config follows the events, so it is the key's last match.
var configKey = []byte(`"config":"`)

// directedState is the Pareto state a push response directs.
func directedState(body []byte) (int, error) {
	i := bytes.LastIndex(body, configKey)
	if i >= 0 {
		name := body[i+len(configKey):]
		if j := bytes.IndexByte(name, '"'); j >= 0 {
			for si, s := range stateNames {
				if string(name[:j]) == s {
					return si, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("push response directs no Pareto state: %.200s", body)
}

var stateNames = func() []string {
	names := make([]string, len(states))
	for i, s := range states {
		names[i] = s.Name()
	}
	return names
}()

// httpConn is one keep-alive connection and the devices it drives in
// turn; a device's next push waits for its previous answer.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	devs []*httpDev
	body []byte

	pushes    []httpPush
	arena     []byte // every push response body, for the correctness gate
	samples   []sample
	opens     []int64 // latencies of the reopens after the timed phase
	closes    []int64
	openFault error // an open that answered another config than a fresh session's
	tally     *tally
	err       error
}

// httpPush is one push as sent and answered.
type httpPush struct {
	dev         *httpDev
	slot, state uint8
	status      int
	off, n      int
}

func dialHTTP(addr string, spin bool) (*httpConn, error) {
	c, err := dial(addr, spin)
	if err != nil {
		return nil, err
	}
	return &httpConn{conn: c, br: bufio.NewReader(c), body: make([]byte, 0, 64<<10), tally: newTally()}, nil
}

// do sends one pre-built request and reads the whole response; the
// returned body is reused by the next call.
func (c *httpConn) do(req []byte) (int, []byte, error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body = c.body[:0]
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, err := resp.Body.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			return 0, nil, err
		}
	}
	resp.Body.Close()
	return resp.StatusCode, c.body, nil
}

// open opens d's session and checks it starts at a fresh session's
// config; it returns the call's latency.
func (c *httpConn) open(d *httpDev) (time.Duration, error) {
	t0 := time.Now()
	status, body, err := c.do(d.openReq)
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	c.tally.record("open", status == http.StatusCreated)
	if status == http.StatusCreated && c.openFault == nil {
		var s sessionJSON
		if err := json.Unmarshal(body, &s); err != nil || s.Config != d.initCfg {
			c.openFault = fmt.Errorf("device %s opened at %q, a fresh session starts at %s", d.dev.id, s.Config, d.initCfg)
		}
	}
	d.state, d.n = d.initState, 0
	return lat, nil
}

// push sends d's next batch at the state the gateway directed last and
// records the answer and its latency.
func (c *httpConn) push(d *httpDev, start time.Time) error {
	slot := d.n % httpSlots
	t0 := time.Now()
	status, body, err := c.do(d.pushReq[slot][d.state])
	t1 := time.Now()
	if err != nil {
		return err
	}
	ok := status == http.StatusOK
	c.tally.record("push", ok)
	c.pushes = append(c.pushes, httpPush{dev: d, slot: uint8(slot), state: uint8(d.state), status: status, off: len(c.arena), n: len(body)})
	c.arena = append(c.arena, body...)
	d.n++
	if !ok {
		return nil // refused: never applied, the session keeps its config
	}
	c.samples = append(c.samples, sample{int64(t1.Sub(start)), int64(t1.Sub(t0))})
	d.state, err = directedState(body)
	return err
}

// run drives the connection's devices round-robin until deadline.
func (c *httpConn) run(start, deadline time.Time) {
	c.samples = c.samples[:0]
	for i := 0; time.Now().Before(deadline); i++ {
		if c.err = c.push(c.devs[i%len(c.devs)], start); c.err != nil {
			return
		}
	}
}

// reopen closes and reopens every session of the connection once,
// timing each call.
func (c *httpConn) reopen() error {
	for _, d := range c.devs {
		t0 := time.Now()
		status, _, err := c.do(d.closeReq)
		if err != nil {
			return err
		}
		c.tally.record("close", status == http.StatusNoContent)
		c.closes = append(c.closes, int64(time.Since(t0)))
		lat, err := c.open(d)
		if err != nil {
			return err
		}
		c.opens = append(c.opens, int64(lat))
	}
	return nil
}

// httpClient is http_fleet's device side: httpConns connections, each
// driving every httpConns-th device.
type httpClient struct {
	devs    []*httpDev
	conns   []*httpConn
	scrapes []int64
	// pool holds /metrics before and after the reopen round.
	pool [2]map[string]float64
}

func (c *httpClient) start(e *env) (*gatewayProc, error) {
	return startGateway(e, false, httpGatewayFlags...)
}

// perConn runs f on every connection concurrently and merges their
// operation counts into t.
func (c *httpClient) perConn(t *tally, f func(conn *httpConn) error) error {
	errs := make([]error, len(c.conns))
	var wg sync.WaitGroup
	for ci, conn := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = f(conn)
		}()
	}
	wg.Wait()
	for _, conn := range c.conns {
		t.merge(conn.tally)
		conn.tally = newTally()
	}
	return errors.Join(errs...)
}

func (c *httpClient) connect(gw *gatewayProc, t *tally) error {
	c.conns = make([]*httpConn, httpConns)
	for ci := range c.conns {
		conn, err := dialHTTP(gw.httpAddr, gw.pinned)
		if err != nil {
			return err
		}
		c.conns[ci] = conn
		for di := ci; di < len(c.devs); di += httpConns {
			conn.devs = append(conn.devs, c.devs[di])
		}
	}
	return c.perConn(t, func(conn *httpConn) error {
		for _, d := range conn.devs {
			if _, err := conn.open(d); err != nil {
				return err
			}
		}
		return nil
	})
}

func (c *httpClient) disconnect() {
	for _, conn := range c.conns {
		if conn != nil {
			conn.conn.Close()
		}
	}
}

func (c *httpClient) drive(start, deadline time.Time, t *tally) ([]sample, error) {
	err := c.perConn(t, func(conn *httpConn) error {
		conn.run(start, deadline)
		return conn.err
	})
	if err != nil {
		return nil, err
	}
	var all []sample
	for _, conn := range c.conns {
		all = append(all, conn.samples...)
	}
	return all, nil
}

// finish scrapes /metrics httpScrapes times with every session open,
// then closes and reopens every session once.
func (c *httpClient) finish(gw *gatewayProc, t *tally) error {
	conn := c.conns[0]
	for i := 0; i < httpScrapes; i++ {
		t0 := time.Now()
		status, _, err := conn.do(scrapeReq)
		if err != nil {
			return err
		}
		t.record("scrape", status == http.StatusOK)
		if status == http.StatusOK {
			c.scrapes = append(c.scrapes, int64(time.Since(t0)))
		}
	}
	var err error
	if c.pool[0], err = scrape(gw.httpAddr); err != nil {
		return err
	}
	if err := c.perConn(t, (*httpConn).reopen); err != nil {
		return err
	}
	c.pool[1], err = scrape(gw.httpAddr)
	return err
}

// verifyHTTP replays every answered push, in order, into a session of an
// in-process adasense.Gateway serving the same model and checks that the
// gateway's response carries the events and directed config the replay
// produces.
func verifyHTTP(sys *adasense.System, conns []*httpConn) error {
	gw, err := adasense.NewGateway(sys)
	if err != nil {
		return err
	}
	var got pushResponse
	for _, c := range conns {
		if c.openFault != nil {
			return c.openFault
		}
		for i, p := range c.pushes {
			if p.status != http.StatusOK {
				continue // refused by the gateway: never applied
			}
			d := p.dev
			sess, ok := gw.Lookup(d.dev.id)
			if !ok {
				if sess, err = gw.Open(d.dev.id); err != nil {
					return err
				}
			}
			events, err := sess.Push(d.batches[p.slot][p.state])
			if err != nil {
				return fmt.Errorf("device %s push %d: replay refused a batch the gateway accepted: %w", d.dev.id, i, err)
			}
			got = pushResponse{}
			if err := json.Unmarshal(c.arena[p.off:p.off+p.n], &got); err != nil {
				return fmt.Errorf("device %s push %d: %w", d.dev.id, i, err)
			}
			same := got.Config == sess.Config().Name() && len(got.Events) == len(events)
			for j := 0; same && j < len(events); j++ {
				ev := events[j]
				same = got.Events[j] == eventJSON{ev.Classification.Activity.String(), ev.Classification.Confidence,
					ev.Config.Name(), ev.ConfigChanged}
			}
			if !same {
				return fmt.Errorf("device %s push %d: gateway answered %+v, replay gives %d events at %s",
					d.dev.id, i, got, len(events), sess.Config().Name())
			}
		}
	}
	return nil
}

func runHTTPFleet(e *env) (*result, error) {
	devs, err := buildHTTPDevs(e.sys, e.seed, nil)
	if err != nil {
		return nil, err
	}
	c := &httpClient{devs: devs}
	r, err := servingPhase(e, c, e.dur, setupRounds, false)
	if err != nil {
		return nil, err
	}
	res := &result{tally: r.tally, correct: true}
	if err := verifyHTTP(e.sys, c.conns); err != nil {
		fmt.Fprintln(e.out, "http_fleet correctness gate FAILED:", err)
		res.correct = false
	} else {
		fmt.Fprintf(e.out, "http_fleet correctness gate passed: %d pushes replayed in process\n", r.stats.n)
	}
	reportServing(e, "http_fleet", r, res)
	var opens, closes []int64
	for _, conn := range c.conns {
		opens = append(opens, conn.opens...)
		closes = append(closes, conn.closes...)
	}
	for _, op := range []struct {
		name string
		lats []int64
	}{{"scrape", c.scrapes}, {"reopen_close", closes}, {"reopen_open", opens}} {
		sortInt64(op.lats)
		fmt.Fprintf(e.out, "http_fleet %-22s %12.2f us   (p50 of %d, after the timed phase)\n",
			op.name+"_p50_us", quantile(op.lats, 0.5)/1e3, len(op.lats))
	}
	return res, nil
}
