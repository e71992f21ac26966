// Command adasense-loadgen drives a synthetic wearable fleet against a
// running adasense gateway cluster and reports what the serving path
// actually sustained: per-route latency quantiles, error counts,
// achieved vs offered throughput, and — when run as a rate ramp — a
// knee-finding capacity estimate.
//
// Usage:
//
//	adasense-loadgen -targets http://gw-a:8734,http://gw-b:8734
//	                 [-transport http] [-token ""] [-devices 50]
//	                 [-cohorts elderly:0.35,rehab:0.25,medium:0.2,drift:0.1,burst:0.1]
//	                 [-rate 50] [-duration 30s] [-events 0]
//	                 [-ramp ""] [-batch-sec 2] [-horizon 3600]
//	                 [-seed 1] [-workers 64] [-attempts 3]
//	                 [-open-first] [-timeout 10s] [-out -] [-strict]
//
// Each synthetic device follows an internal/synth cohort schedule
// (elderly, rehab, medium, high, low, drift, burst — see docs/loadgen.md
// for the grammar), opens a session, and pushes sensor batches paced
// open-loop at the offered rate, adapting its sensor config to whatever
// the gateway directs — the paper's adaptive loop, at fleet scale.
//
// -transport stream replaces the JSON request per push with one
// persistent ADSP connection per device (an HTTP upgrade at /v1/stream
// for http:// targets, the raw-TCP listener for tcp:// targets) — see docs/streaming.md. Redirect
// goodbyes are followed to the owning replica automatically.
//
// A ramp like -ramp 50:30s,100:30s,200:30s runs phases at increasing
// offered rates and estimates the capacity knee from where goodput
// degrades. -events N replaces wall-clock phase lengths with a fixed
// offered-push budget, which makes CI smokes deterministic.
//
// With -strict the exit code is 2 unless every offered push got a 2xx
// (no shed, lost, 4xx/429/5xx, or transport errors) and the report
// validates — the CI smoke contract. The JSON report goes to -out
// (default stdout).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adasense/internal/loadgen"
)

// version is stamped by the release build:
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/adasense-loadgen
var version = "dev"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("adasense-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		targets     = fs.String("targets", "", "comma-separated gateway base URLs (required)")
		transport   = fs.String("transport", "http", "wire transport: http (JSON per push) or stream (persistent ADSP connections)")
		token       = fs.String("token", os.Getenv("ADASENSE_TOKEN"), "bearer token sent on every request")
		devices     = fs.Int("devices", 50, "synthetic fleet size")
		cohorts     = fs.String("cohorts", "", "cohort mix as name:weight,... (default: the standard mixed fleet)")
		rate        = fs.Float64("rate", 50, "offered pushes/sec fleet-wide (single-phase runs)")
		duration    = fs.Duration("duration", 30*time.Second, "single-phase run length")
		events      = fs.Int("events", 0, "fixed offered-push budget; overrides -duration when > 0")
		ramp        = fs.String("ramp", "", "rate ramp as rate:duration,... (e.g. 50:30s,100:30s); overrides -rate/-duration")
		batchSec    = fs.Float64("batch-sec", 2, "signal seconds per pushed batch")
		horizon     = fs.Float64("horizon", 3600, "seconds of schedule generated per device (signal clock wraps)")
		seed        = fs.Uint64("seed", 1, "master RNG seed; equal seeds reproduce the fleet byte-for-byte")
		workers     = fs.Int("workers", 64, "max concurrent in-flight requests (busy slots shed, not queue)")
		attempts    = fs.Int("attempts", 3, "attempts per push (retries cover 5xx/429/transport and re-open on 404/410)")
		openFirst   = fs.Bool("open-first", true, "open every session before pacing starts")
		timeout     = fs.Duration("timeout", 10*time.Second, "per-request HTTP timeout")
		out         = fs.String("out", "-", "report destination file; - = stdout")
		strict      = fs.Bool("strict", false, "exit 2 unless every offered push succeeded and the report validates")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *showVersion {
		fmt.Fprintln(stdout, "adasense-loadgen", version)
		return 0
	}
	if *targets == "" {
		fmt.Fprintln(stderr, "adasense-loadgen: -targets is required")
		fs.Usage()
		return 1
	}

	mix, err := parseMix(*cohorts)
	if err != nil {
		fmt.Fprintln(stderr, "adasense-loadgen:", err)
		return 1
	}
	phases, err := parsePhases(*ramp, *rate, *duration, *events)
	if err != nil {
		fmt.Fprintln(stderr, "adasense-loadgen:", err)
		return 1
	}

	runner, err := loadgen.NewRunner(loadgen.Config{
		Targets:     splitList(*targets),
		Transport:   *transport,
		Token:       *token,
		Devices:     *devices,
		Mix:         mix,
		BatchSec:    *batchSec,
		HorizonSec:  *horizon,
		Seed:        *seed,
		Phases:      phases,
		Workers:     *workers,
		MaxAttempts: *attempts,
		OpenFirst:   *openFirst,
		Client:      &http.Client{Timeout: *timeout},
	})
	if err != nil {
		fmt.Fprintln(stderr, "adasense-loadgen:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	report, runErr := runner.Run(ctx)

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "adasense-loadgen: encoding report:", err)
		return 1
	}
	if *out == "-" || *out == "" {
		fmt.Fprintln(stdout, string(enc))
	} else if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "adasense-loadgen: writing report:", err)
		return 1
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "adasense-loadgen: run interrupted:", runErr)
		return 1
	}
	if *strict {
		if err := strictCheck(report); err != nil {
			fmt.Fprintln(stderr, "adasense-loadgen: strict:", err)
			return 2
		}
	}
	return 0
}

// strictCheck enforces the CI smoke contract: a validating report in
// which every offered push got a 2xx and nothing was shed or retried
// into an error.
func strictCheck(r *loadgen.Report) error {
	if err := r.Validate(); err != nil {
		return err
	}
	t := r.Totals
	if t.Offered == 0 {
		return fmt.Errorf("no pushes were offered")
	}
	bad := t.Shed + t.Lost + t.Status429 + t.Status4xx + t.Status5xx + t.Transport +
		r.Preopened.Status429 + r.Preopened.Status4xx + r.Preopened.Status5xx + r.Preopened.Transport
	if bad != 0 {
		return fmt.Errorf("non-clean run: shed=%d lost=%d 4xx=%d 429=%d 5xx=%d transport=%d (preopen errors included)",
			t.Shed, t.Lost, t.Status4xx, t.Status429, t.Status5xx, t.Transport)
	}
	if t.PushOK != t.Offered {
		return fmt.Errorf("push_2xx=%d != offered=%d", t.PushOK, t.Offered)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseMix parses the cohort grammar "name:weight,name:weight,...".
// Empty input selects the default mixed fleet.
func parseMix(s string) ([]loadgen.Cohort, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil // NewRunner substitutes DefaultMix
	}
	var mix []loadgen.Cohort
	for _, part := range splitList(s) {
		name, wstr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad cohort %q: want name:weight", part)
		}
		w, err := strconv.ParseFloat(wstr, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad cohort weight in %q", part)
		}
		mix = append(mix, loadgen.Cohort{Name: strings.TrimSpace(name), Weight: w})
	}
	return mix, nil
}

// parsePhases builds the pacing plan: either the -ramp grammar
// "rate:duration,..." or a single phase from -rate with -duration or a
// fixed -events budget.
func parsePhases(ramp string, rate float64, duration time.Duration, events int) ([]loadgen.Phase, error) {
	if strings.TrimSpace(ramp) == "" {
		ph := loadgen.Phase{Rate: rate}
		if events > 0 {
			ph.Events = events
		} else {
			ph.Duration = duration
		}
		return []loadgen.Phase{ph}, nil
	}
	var phases []loadgen.Phase
	for _, part := range splitList(ramp) {
		rstr, dstr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad ramp phase %q: want rate:duration", part)
		}
		r, err := strconv.ParseFloat(rstr, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad ramp rate in %q", part)
		}
		d, err := time.ParseDuration(dstr)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad ramp duration in %q", part)
		}
		phases = append(phases, loadgen.Phase{Rate: r, Duration: d})
	}
	return phases, nil
}
