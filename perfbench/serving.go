package main

import (
	"fmt"
	"time"
)

// setupRounds is how many cold gateway starts a serving workload times;
// setup_s is their median and the last start serves the timed phase.
const setupRounds = 11

// warmup is how long a serving workload drives its closed loop before the
// clock starts. Over its first second a freshly started gateway serves
// about a third of its steady push rate while its heap, pools and caches
// fill; the warm-up pushes are counted and checked like every other.
const warmup = 2 * time.Second

// servingRun is the outcome of one serving workload's timed phase.
type servingRun struct {
	setup   []time.Duration
	stats   phaseStats
	cpuNS   []int64 // gateway CPU time at each window boundary
	rssMB   float64
	tally   *tally
	metrics [2]map[string]float64 // /metrics before and after the phase (scrapeAround only)
}

// servingClient is the device side of a serving workload.
type servingClient interface {
	// start execs the gateway with the workload's flags.
	start(e *env) (*gatewayProc, error)
	// connect opens every device session on gw, counting the opens in t;
	// setup_s times it.
	connect(gw *gatewayProc, t *tally) error
	disconnect()
	// drive runs the closed loop until deadline, counts its operations
	// in t and returns the pushes it timed; a later call continues the
	// loop where the previous one stopped.
	drive(start, deadline time.Time, t *tally) ([]sample, error)
	// finish runs the workload's operations that are timed on their
	// own, after the timed phase, counting them in t.
	finish(gw *gatewayProc, t *tally) error
}

// servingPhase starts the gateway rounds times, timing exec until every
// device session is open; every start but the last is stopped again. On
// the last it runs the warm-up and the timed phase, scraping /metrics
// around the timed phase when scrapeAround is set, then the client's
// finish, then stops the gateway.
func servingPhase(e *env, c servingClient, dur time.Duration, rounds int, scrapeAround bool) (*servingRun, error) {
	r := &servingRun{tally: newTally()}
	var gw *gatewayProc
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		var err error
		if gw, err = c.start(e); err != nil {
			return nil, err
		}
		err = c.connect(gw, r.tally)
		r.setup = append(r.setup, time.Since(t0))
		if err != nil || round < rounds-1 {
			c.disconnect()
			gw.stop()
		}
		if err != nil {
			return nil, err
		}
	}
	defer gw.stop()
	defer c.disconnect()
	now := time.Now()
	if _, err := c.drive(now, now.Add(warmup), r.tally); err != nil {
		return nil, err
	}
	var err error
	if scrapeAround {
		if r.metrics[0], err = scrape(gw.httpAddr); err != nil {
			return nil, err
		}
	}
	var samples []sample
	var driveErr error
	err = timedPhase(r, gw.pid(), dur, func(start, deadline time.Time) {
		samples, driveErr = c.drive(start, deadline, r.tally)
	})
	if err != nil {
		return nil, err
	}
	if driveErr != nil {
		return nil, driveErr
	}
	r.stats = windowed(samples, dur, r.cpuNS)
	if scrapeAround {
		if r.metrics[1], err = scrape(gw.httpAddr); err != nil {
			return nil, err
		}
	}
	return r, c.finish(gw, r.tally)
}

// timedPhase runs drive for dur while a monitor goroutine reads the
// gateway's CPU time at every window boundary, then records the
// gateway's peak RSS.
func timedPhase(r *servingRun, pid int, dur time.Duration, drive func(start, deadline time.Time)) error {
	r.cpuNS = make([]int64, windowCount+1)
	start := time.Now()
	var monErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := range r.cpuNS {
			time.Sleep(time.Until(start.Add(dur * time.Duration(w) / windowCount)))
			ns, err := cpuNanos(pid)
			if err != nil {
				monErr = err
				return
			}
			r.cpuNS[w] = ns
		}
	}()
	drive(start, start.Add(dur))
	<-done
	if monErr != nil {
		return fmt.Errorf("reading gateway CPU time: %w", monErr)
	}
	var err error
	r.rssMB, err = peakRSSMB(pid)
	return err
}

// reportServing adds a serving workload's end-to-end metrics to res and
// prints them under the names README.md uses for serving workloads.
func reportServing(e *env, workload string, r *servingRun, res *result) {
	setup := medianDuration(r.setup)
	s := r.stats
	res.add("setup_s", setup, "s")
	res.add("op_rate_per_s", s.ratePerSec, "1/s")
	res.add("op_p50_us", s.p50us, "us")
	res.add("cpu_us_per_op", s.cpuUSPerOp, "us")
	res.add("rss_mb", r.rssMB, "MB")
	w := e.out
	fmt.Fprintf(w, "%s setup_s                %12.6f s    (median of %d gateway starts)\n", workload, setup, len(r.setup))
	fmt.Fprintf(w, "%s push_rate_per_s        %12.1f 1/s  (median of %d windows)\n", workload, s.ratePerSec, windowCount)
	fmt.Fprintf(w, "%s push_p50_us            %12.2f us   (%d push samples)\n", workload, s.p50us, s.n)
	fmt.Fprintf(w, "%s push_p99_us            %12.2f us   (%d push samples)\n", workload, s.p99us, s.n)
	fmt.Fprintf(w, "%s server_cpu_us_per_push %12.2f us\n", workload, s.cpuUSPerOp)
	fmt.Fprintf(w, "%s server_rss_mb          %12.2f MB\n", workload, r.rssMB)
	r.tally.print(w, workload)
}
