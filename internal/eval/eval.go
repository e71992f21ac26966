// Package eval provides classification metrics: a confusion matrix and
// the accuracy read from it, used by the design-space exploration and
// the experiments.
package eval

import (
	"fmt"
	"strings"

	"adasense/internal/synth"
)

// Confusion is a row-major confusion matrix: Confusion[truth][predicted].
type Confusion [synth.NumActivities][synth.NumActivities]int

// Add records one observation.
func (c *Confusion) Add(truth, predicted synth.Activity) {
	c[truth][predicted]++
}

// Total returns the number of recorded observations.
func (c *Confusion) Total() int {
	n := 0
	for i := range c {
		for j := range c[i] {
			n += c[i][j]
		}
	}
	return n
}

// Correct returns the trace (correctly classified count).
func (c *Confusion) Correct() int {
	n := 0
	for i := range c {
		n += c[i][i]
	}
	return n
}

// Accuracy returns Correct/Total, or 0 when empty.
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.Correct()) / float64(t)
}

// String renders the matrix as an aligned table with class labels.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s", "truth\\pred")
	for j := synth.Activity(0); int(j) < synth.NumActivities; j++ {
		fmt.Fprintf(&b, "%11s", j)
	}
	b.WriteByte('\n')
	for i := synth.Activity(0); int(i) < synth.NumActivities; i++ {
		fmt.Fprintf(&b, "%-11s", i)
		for j := 0; j < synth.NumActivities; j++ {
			fmt.Fprintf(&b, "%11d", c[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
