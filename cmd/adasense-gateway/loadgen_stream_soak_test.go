package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adasense"
	"adasense/internal/loadgen"
	"adasense/internal/membership"
)

// TestLoadgenSoakStream is the streaming counterpart of the churn soak
// (run under -race in CI): a mixed-cohort fleet holds persistent ADSP
// connections — two thirds over the HTTP upgrade, one third over raw TCP —
// against a three-replica cluster while a membership change removes a
// replica mid-run. Every device entering at the wrong replica is
// redirected at the door and follows; devices whose owner leaves are
// redirected on a live connection and re-dial. The contract is the same
// as the HTTP soak: zero lost pushes and a well-formed report.
func TestLoadgenSoakStream(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short mode")
	}
	names := []string{"gw-a", "gw-b", "gw-c"}
	servers := make(map[string]*httptest.Server, len(names))
	urls := make(map[string]string, len(names))
	for _, n := range names {
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		t.Cleanup(ts.Close)
		servers[n] = ts
		urls[n] = "http://" + ts.Listener.Addr().String()
	}
	path := filepath.Join(t.TempDir(), "peers.conf")
	writePeers := func(members ...string) {
		var b strings.Builder
		for _, m := range members {
			fmt.Fprintf(&b, "%s=%s\n", m, urls[m])
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	writePeers(names...)

	gws := make(map[string]*adasense.Gateway, len(names))
	tcpTargets := make([]string, 0, len(names))
	for _, n := range names {
		gw, err := adasense.NewGateway(quickSystem(t),
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
		cluster, err := adasense.NewClusterWithSource(gw, n, src)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		gws[n] = gw
		h := newServer(gw, cluster)
		servers[n].Config.Handler = h
		servers[n].Start()

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		tcpTargets = append(tcpTargets, "tcp://"+ln.Addr().String())
		go h.stream.Serve(ln)
	}

	// Targets alternate entrances: the HTTP upgrade on two replicas'
	// HTTP listeners and the raw-TCP listener on the third's
	// -stream-addr equivalent. Round-robin device assignment spreads the fleet over
	// all three, so redirect-following is exercised from the first dial.
	runner, err := loadgen.NewRunner(loadgen.Config{
		Targets:     []string{servers["gw-a"].URL, tcpTargets[1], servers["gw-c"].URL},
		Transport:   loadgen.TransportStream,
		Devices:     120,
		Seed:        2027,
		BatchSec:    1,
		Workers:     96,
		MaxAttempts: 16,
		OpenFirst:   true,
		Phases: []loadgen.Phase{
			{Rate: 200, Events: 400}, // steady state over streams
			{Rate: 200, Events: 800}, // gw-c leaves under load
		},
		OnPhase: func(i int) {
			if i == 1 {
				// The rebalance races the phase's streamed traffic on
				// purpose: live connections to gw-c must be redirected.
				writePeers("gw-a", "gw-b")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("soak report invalid: %v", err)
	}
	if rep.Transport != loadgen.TransportStream {
		t.Fatalf("report transport = %q, want %q", rep.Transport, loadgen.TransportStream)
	}
	if rep.Totals.Lost != 0 {
		enc, _ := json.MarshalIndent(rep, "", "  ")
		t.Fatalf("pushes lost during stream soak:\n%s", enc)
	}
	if want := uint64(400 + 800); rep.Totals.Offered != want {
		t.Fatalf("offered = %d, want %d", rep.Totals.Offered, want)
	}
	if ok := rep.Totals.PushOK; float64(ok) < 0.75*float64(rep.Totals.Offered) {
		t.Fatalf("goodput collapsed: %d of %d offered pushes succeeded", ok, rep.Totals.Offered)
	}
	// The departed replica handed every session off and serves none.
	waitFor(t, "gw-c to hand off all sessions", 10*time.Second, func() bool {
		return gws["gw-c"].NumSessions() == 0
	})
}
