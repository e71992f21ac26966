package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adasense"
	"adasense/internal/membership"
	"adasense/internal/stream"
)

// streamBatch samples one second of walking at the top configuration —
// the ADSP counterpart of wireBatch, kept as a real sensor batch since
// the stream client pushes the struct, not JSON.
func streamBatch(t testing.TB) *adasense.Batch {
	t.Helper()
	sched, err := adasense.NewSchedule([]adasense.Segment{{Activity: adasense.Walk, Duration: 30}})
	if err != nil {
		t.Fatal(err)
	}
	m := adasense.NewMotion(sched, 33)
	b := adasense.NewSampler(adasense.DefaultNoiseModel(), 34).
		Sample(m, adasense.ParetoStates()[0], 0, 1)
	return b
}

// devicesOwnedBy finds n distinct device ids the ring places on owner.
func devicesOwnedBy(t *testing.T, c *adasense.Cluster, owner, prefix string, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; len(ids) < n && i < 100000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if rep, _ := c.Route(id); rep.ID == owner {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("found only %d of %d devices hashing to %s", len(ids), n, owner)
	}
	return ids
}

// streamDev is one simulated device holding a persistent ADSP
// connection. Fields are only touched from the device's own goroutine
// (rounds are sequential), so no lock is needed.
type streamDev struct {
	id        string
	target    string // current dial target (HTTP base URL or tcp://addr)
	tcp       bool   // prefer the raw-TCP transport when retargeting
	c         *stream.Client
	acked     int
	redirects int
}

// TestStreamFleetRebalance is the streaming ingress end-to-end test: a
// mixed upgrade/raw-TCP device fleet holds persistent ADSP connections
// through a two-replica cluster, keeps pushing across a membership
// change that moves every device to one survivor, and finally watches
// the survivor drain. The invariants: misrouted connections are
// redirected (never proxied), no push is ever lost — every batch is
// acked, possibly after a redirect-and-redial — and a drain closes
// streams with an explicit goodbye rather than a dropped socket.
func TestStreamFleetRebalance(t *testing.T) {
	const (
		token       = "stream-secret"
		perRound    = 4
		maxAttempts = 200
	)

	// Two replicas discovered through a polled membership file, each
	// serving the HTTP surface (the ADSP upgrade included) plus a raw
	// ADSP listener — the -stream-addr path, minus the flag plumbing.
	names := []string{"gw-a", "gw-b"}
	servers := make(map[string]*httptest.Server, len(names))
	httpURL := make(map[string]string, len(names))
	tcpURL := make(map[string]string, len(names))
	tcpByHTTP := make(map[string]string, len(names))
	for _, n := range names {
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		t.Cleanup(ts.Close)
		servers[n] = ts
		httpURL[n] = "http://" + ts.Listener.Addr().String()
	}
	path := filepath.Join(t.TempDir(), "peers.conf")
	writePeers := func(members ...string) error {
		var b strings.Builder
		for _, m := range members {
			fmt.Fprintf(&b, "%s=%s\n", m, httpURL[m])
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
	if err := writePeers("gw-a", "gw-b"); err != nil {
		t.Fatal(err)
	}

	handlers := make(map[string]*server, len(names))
	clusters := make(map[string]*adasense.Cluster, len(names))
	for _, n := range names {
		gw, err := adasense.NewGateway(quickSystem(t),
			adasense.WithAuth(token),
			adasense.WithServiceOptions(adasense.WithControllerFactory(func() adasense.Controller {
				return adasense.NewBaselineController()
			})))
		if err != nil {
			t.Fatal(err)
		}
		src, err := membership.NewFileSource(path, membership.WithPollInterval(3*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := adasense.NewClusterWithSource(gw, n, src, adasense.WithPeerAuth(token))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		h := newServer(gw, cluster)
		handlers[n], clusters[n] = h, cluster
		servers[n].Config.Handler = h
		servers[n].Start()

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		tcpURL[n] = "tcp://" + ln.Addr().String()
		tcpByHTTP[httpURL[n]] = tcpURL[n]
		go handlers[n].stream.Serve(ln)
	}

	// The fleet: devices split evenly between the two owners, on both
	// transports, and half of them enter through the WRONG replica so
	// the redirect handshake is exercised from the first dial.
	idsA := devicesOwnedBy(t, clusters["gw-a"], "gw-a", "stream-dev-a", 5)
	idsB := devicesOwnedBy(t, clusters["gw-a"], "gw-b", "stream-dev-b", 5)
	var devs []*streamDev
	var wrongEntry int
	mkDev := func(id, owner string, i int) {
		d := &streamDev{id: id, tcp: i%2 == 1}
		entry := owner
		if i%2 == 0 { // every upgrade device starts at the wrong replica
			if entry = "gw-a"; owner == "gw-a" {
				entry = "gw-b"
			}
			wrongEntry++
		}
		if d.tcp {
			d.target = tcpURL[entry]
		} else {
			d.target = httpURL[entry]
		}
		devs = append(devs, d)
	}
	for i, id := range idsA {
		mkDev(id, "gw-a", i)
	}
	for i, id := range idsB {
		mkDev(id, "gw-b", i)
	}

	batch := streamBatch(t)
	var redirects atomic.Int64
	ctx := context.Background()

	retarget := func(d *streamDev, url string) {
		if d.tcp {
			if tcp, ok := tcpByHTTP[url]; ok {
				d.target = tcp
				return
			}
		}
		d.target = url
	}
	// pushOnce lands one batch, absorbing redirects, handoffs and
	// transient refusals. A push is never given up: an ack is the only
	// exit, so "no pushes lost" is the loop terminating at all.
	pushOnce := func(d *streamDev) {
		for attempt := 0; attempt < maxAttempts; attempt++ {
			if d.c == nil {
				c, err := stream.Dial(ctx, d.target, d.id, token)
				if err != nil {
					var g *stream.GoodbyeError
					if errors.As(err, &g) && g.Code == stream.CodeRedirect && g.Redirect != nil {
						redirects.Add(1)
						d.redirects++
						retarget(d, g.Redirect.ReplicaURL)
						continue
					}
					time.Sleep(2 * time.Millisecond)
					continue
				}
				d.c = c
			}
			_, err := d.c.Push(batch)
			if err == nil {
				d.acked++
				return
			}
			var g *stream.GoodbyeError
			var se *stream.ServerError
			switch {
			case errors.As(err, &g):
				// The server closed the stream: a redirect retargets, a
				// handoff or drain re-dials wherever we last pointed.
				d.c = nil
				if g.Code == stream.CodeRedirect && g.Redirect != nil {
					redirects.Add(1)
					d.redirects++
					retarget(d, g.Redirect.ReplicaURL)
				}
			case errors.As(err, &se):
				// Per-batch refusal (rate limit mid-burst): the
				// connection survives, back off and resend.
				time.Sleep(5 * time.Millisecond)
			default:
				// Transport failure: drop the connection and re-dial.
				d.c.Close()
				d.c = nil
				time.Sleep(2 * time.Millisecond)
			}
		}
		t.Errorf("device %s: push not acked after %d attempts", d.id, maxAttempts)
	}
	startRound := func() *sync.WaitGroup {
		var wg sync.WaitGroup
		for _, d := range devs {
			wg.Add(1)
			go func(d *streamDev) {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					pushOnce(d)
				}
			}(d)
		}
		return &wg
	}

	// Round 1: steady state on two replicas.
	startRound().Wait()

	// Round 2 runs WHILE the membership change lands: gw-b leaves, so
	// every device it owned is swept mid-round and must follow a
	// redirect to gw-a without losing a push.
	wg := startRound()
	if err := writePeers("gw-a"); err != nil {
		t.Error(err)
	}
	wg.Wait()

	// Round 3: after both replicas converge on the single-member view,
	// all traffic must land on gw-a.
	deadline := time.Now().Add(10 * time.Second)
	probe := idsB[0]
	for !clusters["gw-a"].Owns(probe) || clusters["gw-b"].Owns(probe) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for membership change to converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
	startRound().Wait()

	for _, d := range devs {
		if d.acked != 3*perRound {
			t.Errorf("device %s: %d of %d pushes acked", d.id, d.acked, 3*perRound)
		}
	}
	// Every wrong-entry device was redirected at its first dial, and
	// every gw-b device was redirected by the rebalance — on a live
	// connection, not just at the door.
	if got := redirects.Load(); got < int64(wrongEntry) {
		t.Errorf("observed %d client redirects, want at least %d", got, wrongEntry)
	}
	for _, d := range devs {
		if strings.HasPrefix(d.id, "stream-dev-b") && d.redirects == 0 {
			t.Errorf("device %s never saw a redirect despite its owner leaving", d.id)
		}
	}

	// Drain gw-a. Live streams get a goodbye; a connection arriving
	// after shutdown is refused with CodeDraining at the door — read
	// without writing so the refusal cannot race a reset.
	pre := scrapeMetrics(t, servers["gw-a"].URL)
	if pre["adasense_stream_connections"] < 1 {
		t.Errorf("stream connections gauge = %v before drain, want >= 1", pre["adasense_stream_connections"])
	}
	if pre["adasense_stream_redirects_total"] < 1 {
		t.Errorf("gw-a stream redirects counter = %v, want >= 1", pre["adasense_stream_redirects_total"])
	}
	handlers["gw-a"].stream.Shutdown()
	for _, d := range devs {
		if d.c == nil {
			continue
		}
		_, err := d.c.Push(batch)
		if err == nil {
			t.Errorf("device %s: push succeeded after drain", d.id)
		} else if g := new(stream.GoodbyeError); errors.As(err, &g) && g.Code != stream.CodeDraining {
			t.Errorf("device %s: drain goodbye code = %s, want %s", d.id, g.Code, stream.CodeDraining)
		}
		d.c.Close()
	}
	refused, err := net.Dial("tcp", strings.TrimPrefix(tcpURL["gw-a"], "tcp://"))
	if err != nil {
		t.Fatal(err)
	}
	defer refused.Close()
	f, err := stream.NewReader(refused).Next()
	if err != nil {
		t.Fatalf("reading post-drain refusal: %v", err)
	}
	if f.Type != stream.FrameGoodbye {
		t.Fatalf("post-drain frame = %s, want goodbye", f.Type)
	}
	if g, err := stream.DecodeGoodbye(f.Payload); err != nil || g.Code != stream.CodeDraining {
		t.Fatalf("post-drain goodbye = %+v (%v), want code %s", g, err, stream.CodeDraining)
	}
	post := scrapeMetrics(t, servers["gw-a"].URL)
	if post["adasense_stream_connections"] != 0 {
		t.Errorf("stream connections gauge = %v after drain, want 0", post["adasense_stream_connections"])
	}
}
