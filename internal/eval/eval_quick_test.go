package eval

import (
	"testing"
	"testing/quick"

	"adasense/internal/rng"
	"adasense/internal/synth"
)

// TestConfusionInvariants fills confusion matrices with random
// observations and checks structural invariants of every metric.
func TestConfusionInvariants(t *testing.T) {
	f := func(seed uint16, nRaw uint8) bool {
		r := rng.New(uint64(seed))
		n := int(nRaw%200) + 1
		var c Confusion
		for i := 0; i < n; i++ {
			c.Add(synth.Activity(r.Intn(synth.NumActivities)),
				synth.Activity(r.Intn(synth.NumActivities)))
		}
		if c.Total() != n {
			return false
		}
		if c.Correct() > c.Total() {
			return false
		}
		acc := c.Accuracy()
		if acc < 0 || acc > 1 {
			return false
		}
		for a := synth.Activity(0); int(a) < synth.NumActivities; a++ {
			p, rec, f1 := c.Precision(a), c.Recall(a), c.F1(a)
			if p < 0 || p > 1 || rec < 0 || rec > 1 || f1 < 0 || f1 > 1 {
				return false
			}
			// F1 is bounded by both precision and recall's max.
			if f1 > p+rec {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPerfectClassifierScoresOne checks that a diagonal matrix yields
// accuracy and per-class F1 of exactly 1 regardless of class
// distribution.
func TestPerfectClassifierScoresOne(t *testing.T) {
	f := func(counts [synth.NumActivities]uint8) bool {
		var c Confusion
		total := 0
		for a, n := range counts {
			for i := 0; i < int(n); i++ {
				c.Add(synth.Activity(a), synth.Activity(a))
				total++
			}
		}
		if total == 0 {
			return true
		}
		for a, n := range counts {
			if n > 0 && c.F1(synth.Activity(a)) != 1 {
				return false
			}
		}
		return c.Accuracy() == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
