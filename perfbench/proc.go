package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gatewayFlags are the flags every gateway start passes besides its
// listen addresses and model; README.md records them per workload.
var gatewayFlags = []string{"-drain-timeout", "5s"}

// gatewayProc is one running adasense-gateway process.
type gatewayProc struct {
	cmd        *exec.Cmd
	exited     chan struct{}
	httpAddr   string
	streamAddr string // empty unless started with a stream listener
	pinned     bool   // the gateway runs on a CPU of its own
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startGateway execs the gateway and returns once its listeners accept
// connections. The gateway's stdout and stderr go to a file: at the
// default info level it logs every HTTP request, and it must never block
// on a pipe nobody drains.
func startGateway(e *env, withStream bool, extra ...string) (*gatewayProc, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", httpAddr, "-model", e.modelPath}, gatewayFlags...)
	g := &gatewayProc{httpAddr: httpAddr, exited: make(chan struct{})}
	if withStream {
		if g.streamAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-stream-addr", g.streamAddr)
	}
	args = append(args, extra...)
	logf, err := os.Create(filepath.Join(e.work, "gateway.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	if g.pinned = e.gatewayCPU >= 0; g.pinned {
		g.cmd = exec.Command("taskset", append([]string{"-c", strconv.Itoa(e.gatewayCPU), e.gatewayBin}, args...)...)
	} else {
		g.cmd = exec.Command(e.gatewayBin, args...)
	}
	g.cmd.Env = append(os.Environ(), "ADASENSE_TOKEN="+token)
	// The gateway dies with the benchmark even when the benchmark is killed.
	g.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	g.cmd.Stdout, g.cmd.Stderr = logf, logf
	if err := g.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	go func() {
		g.cmd.Wait()
		close(g.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for _, addr := range []string{g.httpAddr, g.streamAddr} {
		if addr == "" {
			continue
		}
		if err := g.waitListening(addr, deadline); err != nil {
			g.stop()
			return nil, err
		}
	}
	return g, nil
}

// waitListening polls addr until it accepts a connection.
func (g *gatewayProc) waitListening(addr string, deadline time.Time) error {
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return c.Close()
		}
		select {
		case <-g.exited:
			return fmt.Errorf("gateway exited during start-up (see gateway.log)")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway not listening on %s: %w", addr, err)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the graceful drain and kills the process
// if it outlives the drain timeout.
func (g *gatewayProc) stop() {
	g.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-g.exited:
	case <-time.After(10 * time.Second):
		g.cmd.Process.Kill()
		<-g.exited
	}
}

func (g *gatewayProc) pid() int { return g.cmd.Process.Pid }

// cpuNanos is the CPU time, user and system, of every thread of pid, from
// the nanosecond counters in /proc/<pid>/task/*/schedstat.
func cpuNanos(pid int) (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		field, _, _ := strings.Cut(string(raw), " ")
		ns, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s schedstat: %w", t.Name(), err)
		}
		total += ns
	}
	return total, nil
}

// peakRSSMB is the peak resident set size (VmHWM) of pid in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrapeClient closes its connection after each scrape, so no idle
// connection to the gateway outlives it.
var scrapeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// scrape fetches /metrics on its own connection and returns every
// unlabelled or labelled series except histogram buckets, keyed by the
// series text before the value.
func scrape(httpAddr string) (map[string]float64, error) {
	resp, err := scrapeClient.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	series := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series[line[:i]] = v
	}
	return series, sc.Err()
}

// delta is after[k] - before[k].
func delta(before, after map[string]float64, k string) float64 { return after[k] - before[k] }
