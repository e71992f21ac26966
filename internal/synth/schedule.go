package synth

import (
	"fmt"

	"adasense/internal/rng"
)

// Segment is one contiguous activity span in a schedule.
type Segment struct {
	Activity Activity
	Duration float64 // seconds, > 0
}

// Schedule is an ordered sequence of activity segments describing what the
// synthetic user does over time. It is the ground truth against which
// recognition accuracy is scored.
type Schedule struct {
	segments []Segment
	starts   []float64 // start time of each segment
	total    float64
}

// NewSchedule builds a schedule from segments. It returns an error if any
// segment has a non-positive duration or an invalid activity.
func NewSchedule(segments []Segment) (*Schedule, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("synth: empty schedule")
	}
	s := &Schedule{segments: append([]Segment(nil), segments...)}
	t := 0.0
	for i, seg := range s.segments {
		if seg.Duration <= 0 {
			return nil, fmt.Errorf("synth: segment %d has non-positive duration %v", i, seg.Duration)
		}
		if !seg.Activity.Valid() {
			return nil, fmt.Errorf("synth: segment %d has invalid activity %d", i, int(seg.Activity))
		}
		s.starts = append(s.starts, t)
		t += seg.Duration
	}
	s.total = t
	return s, nil
}

// MustSchedule is NewSchedule that panics on error, for literals in tests
// and examples.
func MustSchedule(segments ...Segment) *Schedule {
	s, err := NewSchedule(segments)
	if err != nil {
		panic(err)
	}
	return s
}

// Total returns the schedule duration in seconds.
func (s *Schedule) Total() float64 { return s.total }

// Segments returns a copy of the schedule's segments.
func (s *Schedule) Segments() []Segment { return append([]Segment(nil), s.segments...) }

// index returns the segment index containing time t (clamped to the ends).
func (s *Schedule) index(t float64) int {
	if t <= 0 {
		return 0
	}
	if t >= s.total {
		return len(s.segments) - 1
	}
	// Binary search over starts: the largest i with starts[i] <= t.
	lo, hi := 0, len(s.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.starts[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// ActivityAt returns the ground-truth activity at time t. Times outside
// [0, Total) clamp to the first/last segment.
func (s *Schedule) ActivityAt(t float64) Activity {
	return s.segments[s.index(t)].Activity
}

// DominantActivity returns the activity occupying the largest fraction of
// the interval [t0, t1]. Recognition over a 2-second window that straddles
// a transition is scored against the window's dominant ground truth.
func (s *Schedule) DominantActivity(t0, t1 float64) Activity {
	if t1 <= t0 {
		return s.ActivityAt(t0)
	}
	var share [NumActivities]float64
	i := s.index(t0)
	t := t0
	for t < t1 && i < len(s.segments) {
		end := s.starts[i] + s.segments[i].Duration
		if end > t1 {
			end = t1
		}
		if end > t {
			share[s.segments[i].Activity] += end - t
			t = end
		}
		i++
	}
	best := Activity(0)
	for a := Activity(1); int(a) < NumActivities; a++ {
		if share[a] > share[best] {
			best = a
		}
	}
	return best
}

// ChangeSetting names the user-activity volatility settings of the paper's
// Fig. 7 comparison.
type ChangeSetting int

// The three settings: High changes activity roughly every 10 s, Medium
// every ~30 s, Low holds each activity for at least a minute.
const (
	HighChange ChangeSetting = iota
	MediumChange
	LowChange
)

// String returns the paper's setting label.
func (c ChangeSetting) String() string {
	switch c {
	case HighChange:
		return "High"
	case MediumChange:
		return "Medium"
	case LowChange:
		return "Low"
	default:
		return fmt.Sprintf("ChangeSetting(%d)", int(c))
	}
}

// DwellBounds returns the [lo, hi] uniform dwell-time range in seconds for
// the setting, matching the paper's description: High = activity changes
// every ~10 s, Low = the user takes at least one minute to change.
func (c ChangeSetting) DwellBounds() (lo, hi float64) {
	switch c {
	case HighChange:
		return 8, 12
	case MediumChange:
		return 25, 40
	case LowChange:
		return 60, 90
	default:
		return 25, 40
	}
}

// RandomSchedule generates a schedule of approximately totalSec seconds
// whose dwell times are uniform in [dwellLo, dwellHi] and whose successive
// activities are drawn uniformly from the classes other than the current
// one (a symmetric Markov chain over the six activities).
func RandomSchedule(r *rng.Source, totalSec, dwellLo, dwellHi float64) *Schedule {
	if totalSec <= 0 {
		panic("synth: RandomSchedule with non-positive duration")
	}
	if dwellLo <= 0 || dwellHi < dwellLo {
		panic("synth: RandomSchedule with invalid dwell bounds")
	}
	var segs []Segment
	cur := Activity(r.Intn(NumActivities))
	t := 0.0
	for t < totalSec {
		d := r.Uniform(dwellLo, dwellHi)
		if t+d > totalSec {
			d = totalSec - t
			if d <= 0.5 { // absorb a sliver into the previous segment
				if len(segs) > 0 {
					segs[len(segs)-1].Duration += d
					break
				}
				d = 1
			}
		}
		segs = append(segs, Segment{Activity: cur, Duration: d})
		t += d
		// Next activity: uniform over the other five classes.
		next := Activity(r.Intn(NumActivities - 1))
		if next >= cur {
			next++
		}
		cur = next
	}
	s, err := NewSchedule(segs)
	if err != nil {
		panic(err) // unreachable: construction guarantees validity
	}
	return s
}

// SettingSchedule generates a schedule for one of Fig. 7's activity-change
// settings.
func SettingSchedule(r *rng.Source, setting ChangeSetting, totalSec float64) *Schedule {
	lo, hi := setting.DwellBounds()
	return RandomSchedule(r, totalSec, lo, hi)
}
