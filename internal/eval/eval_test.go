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
	if c.Precision(synth.Walk) != 0 || c.Recall(synth.Walk) != 0 || c.F1(synth.Walk) != 0 {
		t.Fatal("per-class metrics of empty matrix should be 0")
	}
}

func TestPrecisionRecall(t *testing.T) {
	var c Confusion
	// truth walk ×3: predicted walk, walk, sit.
	c.Add(synth.Walk, synth.Walk)
	c.Add(synth.Walk, synth.Walk)
	c.Add(synth.Walk, synth.Sit)
	// truth sit ×2: predicted walk, sit.
	c.Add(synth.Sit, synth.Walk)
	c.Add(synth.Sit, synth.Sit)
	if got := c.Recall(synth.Walk); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Recall(walk) = %v", got)
	}
	if got := c.Precision(synth.Walk); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Precision(walk) = %v", got)
	}
	if got := c.F1(synth.Walk); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("F1(walk) = %v", got)
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
