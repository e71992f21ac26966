package main

import (
	"fmt"

	"adasense"
	"adasense/internal/loadgen"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

// batchSec is the signal time one push carries: one classification window.
const batchSec = 2.0

// horizonSec is the length of each device's generated activity schedule.
const horizonSec = 3600

// device is one synthetic wearable: generated motion and a sampler, both
// derived from the workload seed.
type device struct {
	id      string
	motion  *synth.Motion
	sampler *sensor.Sampler
}

// newFleet builds n devices from the standard cohort mix
// (loadgen.DefaultMix) the way adasense-loadgen does: one rng split per
// device, in fleet order, so equal seeds give byte-identical fleets.
func newFleet(n int, seed uint64) ([]*device, error) {
	mix := loadgen.DefaultMix()
	counts := apportion(n, mix)
	master := rng.New(seed)
	models := synth.DefaultModels()
	var devs []*device
	for ci, c := range mix {
		for k := 0; k < counts[ci]; k++ {
			dr := master.Split(uint64(len(devs)))
			sched, err := synth.CohortSchedule(c.Name, dr, horizonSec)
			if err != nil {
				return nil, err
			}
			devs = append(devs, &device{
				id:      fmt.Sprintf("%s-%04d", c.Name, k),
				motion:  synth.NewMotion(models, sched, dr),
				sampler: sensor.NewSampler(sensor.DefaultNoiseModel(), dr),
			})
		}
	}
	return devs, nil
}

// apportion splits n devices over the mix weights: floors first, then the
// remainder to the largest fractional parts. It repeats loadgen's
// unexported rule so both build the same fleet.
func apportion(n int, mix []loadgen.Cohort) []int {
	total := 0.0
	for _, c := range mix {
		total += c.Weight
	}
	counts := make([]int, len(mix))
	fracs := make([]float64, len(mix))
	assigned := 0
	for i, c := range mix {
		exact := float64(n) * c.Weight / total
		counts[i] = int(exact)
		fracs[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for ; assigned < n; assigned++ {
		best := 0
		for i := range fracs {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		counts[best]++
		fracs[best] = -1
	}
	return counts
}

// sample draws the device's batch for signal slot slot at cfg, recording
// a sensor.sample span when tr is tracing.
func (d *device) sample(cfg sensor.Config, slot int, tr *tracer) *sensor.Batch {
	t0 := float64(slot) * batchSec
	sp := tr.begin("sensor.sample", -1, -1)
	b := d.sampler.Sample(d.motion, cfg, t0, t0+batchSec)
	tr.end(sp)
	return b
}

// states are the SPOT Pareto states, the only configs a session directs.
var states = adasense.ParetoStates()

// stateIndex maps a directed config to its Pareto state index.
func stateIndex(cfg sensor.Config) (int, error) {
	for i, s := range states {
		if s == cfg {
			return i, nil
		}
	}
	return 0, fmt.Errorf("config %s is not a Pareto state", cfg.Name())
}

// evRec is one classification event as a device received it.
type evRec struct {
	activity uint8
	conf     float64
	cfg      sensor.Config
	changed  bool
}

func toEvRecs(dst []evRec, events []adasense.Event) []evRec {
	for _, ev := range events {
		dst = append(dst, evRec{uint8(ev.Classification.Activity), ev.Classification.Confidence, ev.Config, ev.ConfigChanged})
	}
	return dst
}

// sameEvents reports whether the events a device received equal the
// events an in-process session produced for the same batch.
func sameEvents(got []evRec, want []adasense.Event) bool {
	if len(got) != len(want) {
		return false
	}
	for i, ev := range want {
		g := got[i]
		if g.activity != uint8(ev.Classification.Activity) || g.conf != ev.Classification.Confidence ||
			g.cfg != ev.Config || g.changed != ev.ConfigChanged {
			return false
		}
	}
	return true
}
