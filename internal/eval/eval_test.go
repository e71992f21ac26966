package eval

import (
	"math"
	"strings"
	"testing"

	"adasense/internal/synth"
)

func TestConfusionBasics(t *testing.T) {
	var c Confusion
	c.Add(synth.Walk, synth.Walk)
	c.Add(synth.Walk, synth.Walk)
	c.Add(synth.Walk, synth.Downstairs)
	c.Add(synth.Sit, synth.Sit)
	if c.Total() != 4 {
		t.Fatalf("Total = %d", c.Total())
	}
	if c.Correct() != 3 {
		t.Fatalf("Correct = %d", c.Correct())
	}
	if got := c.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
}

func TestEmptyConfusion(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 {
		t.Fatal("empty confusion should score 0")
	}
}

func TestStringContainsLabels(t *testing.T) {
	var c Confusion
	c.Add(synth.Upstairs, synth.Downstairs)
	s := c.String()
	if !strings.Contains(s, "upstairs") || !strings.Contains(s, "downstairs") {
		t.Fatalf("String missing labels:\n%s", s)
	}
}
