// Command adasense-sim runs the closed sensing/classification/control
// loop over a synthetic user and reports recognition accuracy, energy and
// per-configuration dwell. It can load a model container trained by
// adasense-train or train a quick one on the fly.
//
// Usage:
//
//	adasense-sim [-model model.bin] [-controller spot|spot-conf|baseline]
//	             [-threshold 10] [-duration 600] [-setting medium|high|low|sitwalk]
//	             [-repeats 1] [-parallel 0] [-seed 1] [-csv trace.csv]
//
// With -repeats > 1 the same workload setting is re-drawn with distinct
// seeds and fanned across workers through Service.RunMany; the report
// then aggregates the runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"adasense"
	"adasense/internal/trace"
)

func main() {
	model := flag.String("model", "", "model file from adasense-train (empty: train a quick model)")
	controller := flag.String("controller", "spot-conf", "controller: spot, spot-conf or baseline")
	threshold := flag.Int("threshold", 10, "SPOT stability threshold (seconds)")
	duration := flag.Float64("duration", 600, "simulated duration (seconds)")
	setting := flag.String("setting", "medium", "workload: high, medium, low or sitwalk")
	repeats := flag.Int("repeats", 1, "independent runs to aggregate")
	parallel := flag.Int("parallel", 0, "worker goroutines for -repeats (0: GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "write the recorded trace as CSV (first run only)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *model, *controller, *threshold, *duration, *setting, *repeats, *parallel, *seed, *csvPath); err != nil {
		fmt.Fprintln(os.Stderr, "adasense-sim:", err)
		os.Exit(1)
	}
}

func loadOrTrain(model string, seed uint64) (*adasense.System, error) {
	if model == "" {
		fmt.Fprintln(os.Stderr, "no -model given; training a quick classifier...")
		sys, acc, err := adasense.TrainSystem(adasense.TrainingConfig{
			Windows: 2400, Epochs: 40, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "quick classifier held-out accuracy: %.1f%%\n", 100*acc)
		return sys, nil
	}
	f, err := os.Open(model)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return adasense.LoadSystem(f)
}

func schedule(setting string, duration float64, seed uint64) (*adasense.Schedule, error) {
	switch setting {
	case "high":
		return adasense.SettingSchedule(seed, adasense.HighChange, duration), nil
	case "medium":
		return adasense.SettingSchedule(seed, adasense.MediumChange, duration), nil
	case "low":
		return adasense.SettingSchedule(seed, adasense.LowChange, duration), nil
	case "sitwalk":
		half := duration / 2
		return adasense.NewSchedule([]adasense.Segment{
			{Activity: adasense.Sit, Duration: half},
			{Activity: adasense.Walk, Duration: half},
		})
	default:
		return nil, fmt.Errorf("unknown setting %q", setting)
	}
}

func run(ctx context.Context, model, controller string, threshold int, duration float64, setting string, repeats, parallel int, seed uint64, csvPath string) error {
	sys, err := loadOrTrain(model, seed)
	if err != nil {
		return err
	}

	factory, err := controllerFactory(controller, threshold)
	if err != nil {
		return err
	}
	svc, err := adasense.NewService(sys, adasense.WithControllerFactory(factory))
	if err != nil {
		return err
	}

	if repeats < 1 {
		repeats = 1
	}
	specs := make([]adasense.RunSpec, repeats)
	for i := range specs {
		runSeed := seed + uint64(i)*1000
		sched, err := schedule(setting, duration, runSeed+1)
		if err != nil {
			return err
		}
		specs[i] = adasense.RunSpec{
			Motion: adasense.NewMotion(sched, runSeed+2),
			Seed:   runSeed + 3,
			Record: csvPath != "" && i == 0,
		}
	}

	results, err := svc.RunMany(ctx, specs, parallel)
	if err != nil {
		return err
	}

	report(results)
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		var rec *trace.Recorder = results[0].Recorder
		if err := rec.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", csvPath)
	}
	return nil
}

func controllerFactory(name string, threshold int) (func() adasense.Controller, error) {
	switch name {
	case "spot":
		return func() adasense.Controller { return adasense.NewSPOT(threshold) }, nil
	case "spot-conf":
		return func() adasense.Controller { return adasense.NewSPOTWithConfidence(threshold) }, nil
	case "baseline":
		return func() adasense.Controller { return adasense.NewBaselineController() }, nil
	default:
		return nil, fmt.Errorf("unknown controller %q", name)
	}
}

func report(results []adasense.SimulationResult) {
	var durSec, acc, sensorUA, mcuUA, chargeUC float64
	ticks := 0
	dwell := map[string]float64{}
	for _, res := range results {
		durSec += res.DurationSec
		acc += res.Accuracy()
		sensorUA += res.AvgSensorCurrentUA
		mcuUA += res.AvgMCUCurrentUA
		chargeUC += res.SensorChargeUC
		ticks += res.Ticks
		for name, d := range res.ConfigDwellSec {
			dwell[name] += d
		}
	}
	n := float64(len(results))
	if len(results) > 1 {
		fmt.Printf("aggregated over %d runs\n", len(results))
	}
	fmt.Printf("duration:            %.0f s (%d classification ticks)\n", durSec, ticks)
	fmt.Printf("recognition accuracy: %.2f%%\n", 100*acc/n)
	fmt.Printf("avg sensor current:   %.1f uA (baseline 180.0)\n", sensorUA/n)
	fmt.Printf("avg MCU current:      %.1f uA\n", mcuUA/n)
	fmt.Printf("sensor charge:        %.0f uC\n", chargeUC)
	fmt.Println("configuration dwell:")
	for _, cfg := range adasense.TableI() {
		if d, ok := dwell[cfg.Name()]; ok {
			fmt.Printf("  %-13s %7.0f s (%4.1f%%)\n", cfg.Name(), d, 100*d/durSec)
		}
	}
	fmt.Println("\nconfusion matrix (last run):")
	fmt.Print(results[len(results)-1].Confusion.String())
}
