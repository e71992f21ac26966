// Command perfbench is the repository's benchmark. It drives one of three
// workloads from a single client process and prints every metric by name
// and unit, ending with one JSON line:
//
//	stream_push  2 devices on raw-TCP ADSP against the adasense-gateway binary
//	http_fleet   256 devices over 2 keep-alive HTTP/JSON connections
//	paper_suite  the quick experiment set of adasense-experiments, in process
//
// With -trace 0 it reports the end-to-end metrics of the workload; with
// -trace 1 it replays the workload's inputs through the public function of
// each layer and reports the per-layer budget. Every run checks the
// program's outputs against in-process replays or pinned values and exits
// 1 when they are wrong.
//
// run.sh builds the gateway binary and this command and passes -gateway and
// -work; README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"adasense"
)

// token is the bearer token both serving workloads authenticate with.
const token = "perfbench-token"

// env is what every workload needs before its clock starts.
type env struct {
	seed       uint64
	dur        time.Duration
	gatewayBin string
	gatewayCPU int    // CPU the gateway is pinned to; -1 for none
	work       string // scratch directory for the model, gateway log and spans
	modelPath  string
	sys        *adasense.System // loaded from modelPath: the bytes the gateway serves
	out        io.Writer        // human-readable report
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	correct bool
	tally   *tally
	metrics []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func main() {
	workload := flag.String("workload", "", "stream_push, http_fleet or paper_suite")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer budget")
	gatewayBin := flag.String("gateway", "", "adasense-gateway binary")
	gatewayCPU := flag.Int("gateway-cpu", -1, "pin the gateway to this CPU with taskset (-1: no pinning)")
	work := flag.String("work", "", "scratch directory")
	flag.Parse()

	res, err := run(os.Stdout, *workload, *seed, *seconds, *trace, *gatewayBin, *gatewayCPU, *work)
	if err == nil {
		err = printResult(os.Stdout, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed")
		os.Exit(1)
	}
}

func run(out io.Writer, workload string, seed uint64, seconds, trace int, gatewayBin string, gatewayCPU int, work string) (*result, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	switch workload {
	case "stream_push", "http_fleet", "paper_suite":
	default:
		return nil, fmt.Errorf("unknown -workload %q (want stream_push, http_fleet or paper_suite)", workload)
	}
	if gatewayBin == "" || work == "" {
		return nil, fmt.Errorf("-gateway and -work are required (run.sh passes them)")
	}
	e := &env{seed: seed, dur: time.Duration(seconds) * time.Second,
		gatewayBin: gatewayBin, gatewayCPU: gatewayCPU, work: work, out: out}
	if workload == "paper_suite" && trace == 0 {
		return runPaperSuite(e) // serves nothing, so needs no model
	}
	if err := e.prepareModel(); err != nil {
		return nil, err
	}
	if trace == 1 {
		return runTraced(e, workload)
	}
	switch workload {
	case "stream_push":
		return runStreamPush(e)
	default:
		return runHTTPFleet(e)
	}
}

// modelWindows sizes the served model's training corpus; it matches the
// gateway's own startup default.
const modelWindows = 2400

// prepareModel trains the served model once, before any clock, and loads
// the container back so in-process replays use exactly the weights the
// gateway loads.
func (e *env) prepareModel() error {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	sys, _, err := adasense.TrainSystem(adasense.TrainingConfig{Windows: modelWindows, Seed: 1})
	if err != nil {
		return fmt.Errorf("training the served model: %w", err)
	}
	e.modelPath = filepath.Join(e.work, "model.bin")
	f, err := os.Create(e.modelPath)
	if err != nil {
		return err
	}
	if err := sys.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(e.modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	e.sys, err = adasense.LoadSystem(f)
	return err
}

// printResult writes the metric table, then the result as the last line.
func printResult(w io.Writer, r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	names := make([]string, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	attempted, failed := r.tally.totals()
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, attempted, failed, ms})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err) // a metric is NaN or infinite
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
