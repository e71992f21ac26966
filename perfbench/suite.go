package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"adasense/internal/experiments"
)

// paper_suite runs the quick experiment set of
// `adasense-experiments -run all -quick` in process, with the CLI's quick
// specs. Its inputs are the paper reproduction's fixed configuration (lab
// seed 1, the CLI default) so that its fidelity outputs can be pinned;
// -seed does not change them.
const (
	suiteLabSeed = 1
	// suiteRounds is how many times a run builds a lab and runs the quick
	// set on it; the reported figures are medians over the rounds.
	suiteRounds = 3
	// fidelityTol is the relative tolerance of the fidelity gate. The
	// values repeat bit for bit on one machine; the tolerance admits only
	// the last-bit differences of fused multiply-adds, which Go may emit
	// on some CPU architectures.
	fidelityTol = 1e-9
)

var quickLab = experiments.LabConfig{Seed: suiteLabSeed, TrainWindows: 2400, BankWindowsPerConfig: 1200, Epochs: 40}

// fidelity holds the Fig. 6 operating-point values the quick suite
// produces at lab seed 1; the correctness gate requires them within
// fidelityTol.
//
//go:embed fidelity.json
var fidelityJSON []byte

type fidelity struct {
	SensorSavingPct float64 `json:"sensor_saving_pct"`
	AccuracyDropPct float64 `json:"accuracy_drop_pct"`
}

// fig6Fidelity reads the paper's headline quantities off a Fig. 6 sweep:
// the sensor-current saving of SPOT with confidence at the operating
// threshold, and the accuracy it gives up against the baseline there.
func fig6Fidelity(r experiments.Fig6Result) (fidelity, error) {
	for _, row := range r.Rows {
		if row.ThresholdSec == experiments.OperatingThresholdSec {
			return fidelity{100 * r.OpSavingConf, 100 * (row.BaselineAcc - row.ConfAcc)}, nil
		}
	}
	return fidelity{}, fmt.Errorf("fig6 sweep has no %d s row", experiments.OperatingThresholdSec)
}

// suiteOp is one experiment of the quick set; it returns the rendering the
// CLI prints.
type suiteOp struct {
	name string
	run  func(l *experiments.Lab) (string, error)
}

// suiteOps builds the quick set in the CLI's order; the Fig. 6 result is
// stored into fig6.
func suiteOps(fig6 *experiments.Fig6Result) []suiteOp {
	render := func(r interface{ Render() string }, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
	return []suiteOp{
		{"table1", func(*experiments.Lab) (string, error) { return experiments.Table1().Render(), nil }},
		{"fsm", func(*experiments.Lab) (string, error) { return experiments.FSM().Render(), nil }},
		{"overhead", func(*experiments.Lab) (string, error) { return experiments.Overhead().Render(), nil }},
		{"fig2", func(l *experiments.Lab) (string, error) {
			return render(l.Fig2(experiments.Fig2Spec{TrainWindows: 1200, TestWindows: 900}))
		}},
		{"fig5", func(l *experiments.Lab) (string, error) { return render(l.Fig5()) }},
		{"fig6", func(l *experiments.Lab) (string, error) {
			r, err := l.Fig6(experiments.Fig6Spec{Repeats: 2, ScheduleSec: 300})
			*fig6 = r
			return render(r, err)
		}},
		{"fig7", func(l *experiments.Lab) (string, error) {
			return render(l.Fig7(experiments.Fig7Spec{Repeats: 2, ScheduleSec: 300}))
		}},
		{"memory", func(l *experiments.Lab) (string, error) { return l.Memory().Render(), nil }},
		{"feature_ablation", func(l *experiments.Lab) (string, error) { return render(l.FeatureAblation(1500)) }},
		{"confidence_ablation", func(l *experiments.Lab) (string, error) { return render(l.ConfidenceAblation(0, 2)) }},
		{"fixed_point", func(l *experiments.Lab) (string, error) { return render(l.FixedPointAblation(0)) }},
		{"hidden_width", func(l *experiments.Lab) (string, error) { return render(l.HiddenWidthAblation(1500)) }},
		{"feature_families", func(l *experiments.Lab) (string, error) { return render(l.FeatureFamilyAblation(1500)) }},
		{"descend_mode", func(l *experiments.Lab) (string, error) { return render(l.DescendModeAblation(0, 2)) }},
	}
}

// suiteRun is one pass over the quick set.
type suiteRun struct {
	wall     time.Duration
	cpuNS    int64
	fidelity fidelity
	tally    *tally
}

// runSuite runs every experiment once on lab, recording an
// experiments.<name> span per experiment when tr is tracing.
func runSuite(lab *experiments.Lab, tr *tracer) (*suiteRun, error) {
	var fig6 experiments.Fig6Result
	ops := suiteOps(&fig6)
	r := &suiteRun{tally: newTally()}
	cpu0, err := cpuNanos(os.Getpid())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, op := range ops {
		sp := tr.begin("experiments."+op.name, -1, -1)
		_, err := op.run(lab)
		tr.end(sp)
		r.tally.record("experiment", err == nil)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", op.name, err)
		}
	}
	r.wall = time.Since(t0)
	cpu1, err := cpuNanos(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.cpuNS = cpu1 - cpu0
	r.fidelity, err = fig6Fidelity(fig6)
	return r, err
}

// checkFidelity compares the suite's outputs to the pinned values.
func checkFidelity(got fidelity) error {
	var want fidelity
	if err := json.Unmarshal(fidelityJSON, &want); err != nil {
		return fmt.Errorf("fidelity.json: %w", err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= fidelityTol*math.Max(math.Abs(a), math.Abs(b)) }
	if !near(got.SensorSavingPct, want.SensorSavingPct) || !near(got.AccuracyDropPct, want.AccuracyDropPct) {
		return fmt.Errorf("fig6 gives sensor saving %v %%, accuracy drop %v pp; pinned %v %%, %v pp",
			got.SensorSavingPct, got.AccuracyDropPct, want.SensorSavingPct, want.AccuracyDropPct)
	}
	return nil
}

// newQuickLab times building the lab the quick set runs on.
func newQuickLab(tr *tracer) (*experiments.Lab, time.Duration, error) {
	sp := tr.begin("experiments.new_lab", -1, -1)
	t0 := time.Now()
	lab, err := experiments.NewLab(quickLab)
	d := time.Since(t0)
	tr.end(sp)
	return lab, d, err
}

// resetPeakRSS restarts the process's VmHWM from its current RSS, after
// returning freed memory to the system, so the next peak is the next
// round's own.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func runPaperSuite(e *env) (*result, error) {
	t := newTally()
	var setup, wall []time.Duration
	var cpu, rss []float64
	var fid fidelity
	var fidErr error
	for i := 0; i < suiteRounds; i++ {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		lab, d, err := newQuickLab(nil)
		if err != nil {
			return nil, err
		}
		sr, err := runSuite(lab, nil)
		if err != nil {
			return nil, err
		}
		peak, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		t.merge(sr.tally)
		setup, wall = append(setup, d), append(wall, sr.wall)
		cpu, rss = append(cpu, float64(sr.cpuNS)/1e3), append(rss, peak)
		if fidErr == nil {
			fidErr = checkFidelity(sr.fidelity)
		}
		fid = sr.fidelity
	}
	res := &result{tally: t, correct: true}
	if fidErr != nil {
		fmt.Fprintln(e.out, "paper_suite correctness gate FAILED:", fidErr)
		res.correct = false
	} else {
		fmt.Fprintf(e.out, "paper_suite correctness gate passed: fig6 fidelity equals fidelity.json in all %d rounds\n", suiteRounds)
	}
	suiteS := medianDuration(wall)
	setupS := medianDuration(setup)
	res.add("setup_s", setupS, "s")
	res.add("op_rate_per_s", 1/suiteS, "1/s")
	res.add("op_p50_us", suiteS*1e6, "us")
	res.add("cpu_us_per_op", median(cpu), "us")
	res.add("rss_mb", median(rss), "MB")
	w := e.out
	fmt.Fprintf(w, "paper_suite setup_s           %12.6f s   (median of %d lab builds)\n", setupS, len(setup))
	fmt.Fprintf(w, "paper_suite suite_s           %12.6f s   (median of %d rounds of %d experiments)\n",
		suiteS, len(wall), t.byType["experiment"].attempted/len(wall))
	fmt.Fprint(w, "paper_suite rounds (lab build s, suite s):")
	for i := range wall {
		fmt.Fprintf(w, " (%.3f, %.3f)", setup[i].Seconds(), wall[i].Seconds())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "paper_suite sensor_saving_pct %12.6f %%   (paper: 69)\n", fid.SensorSavingPct)
	fmt.Fprintf(w, "paper_suite accuracy_drop_pct %12.6f pp  (paper: under 1.5)\n", fid.AccuracyDropPct)
	t.print(w, "paper_suite")
	return res, nil
}
