package eval

import (
	"testing"
	"testing/quick"

	"adasense/internal/rng"
	"adasense/internal/synth"
)

// TestConfusionInvariants fills confusion matrices with random
// observations and checks the structural invariants of the counts and
// the accuracy.
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
		return acc >= 0 && acc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPerfectClassifierScoresOne checks that a diagonal matrix yields
// an accuracy of exactly 1 regardless of class distribution.
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
		return c.Accuracy() == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
