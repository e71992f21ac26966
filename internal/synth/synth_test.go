package synth

import (
	"math"
	"testing"
	"testing/quick"

	"adasense/internal/rng"
)

func TestActivityString(t *testing.T) {
	if Walk.String() != "walk" || Downstairs.String() != "downstairs" {
		t.Fatal("activity names wrong")
	}
	if Activity(99).String() != "activity(99)" {
		t.Fatal("out-of-range name wrong")
	}
}

func TestParseActivityRoundTrip(t *testing.T) {
	for a := Activity(0); int(a) < NumActivities; a++ {
		got, err := ParseActivity(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip failed for %v: %v %v", a, got, err)
		}
	}
	if _, err := ParseActivity("flying"); err == nil {
		t.Fatal("ParseActivity accepted junk")
	}
}

func TestIsStatic(t *testing.T) {
	static := map[Activity]bool{Sit: true, Stand: true, LieDown: true, Walk: false, Upstairs: false, Downstairs: false}
	for a, want := range static {
		if a.IsStatic() != want {
			t.Fatalf("IsStatic(%v) = %v", a, !want)
		}
	}
}

func TestEpisodeGravityMagnitude(t *testing.T) {
	models := DefaultModels()
	r := rng.New(1)
	for _, m := range models {
		ep := m.NewEpisode(r)
		if g := ep.gravity.Norm(); math.Abs(g-Gravity) > 1e-9 {
			t.Fatalf("%v: gravity magnitude %v", m.Activity, g)
		}
	}
}

func TestEpisodeDeterministicEval(t *testing.T) {
	models := DefaultModels()
	ep := models[Walk].NewEpisode(rng.New(7))
	a := ep.Eval(1.234)
	b := ep.Eval(1.234)
	if a != b {
		t.Fatal("Eval is not deterministic")
	}
}

// TestAvgEvalMatchesNumericalIntegration is the key physics property: the
// closed-form windowed average must agree with brute-force numerical
// averaging of the same signal.
func TestAvgEvalMatchesNumericalIntegration(t *testing.T) {
	models := DefaultModels()
	r := rng.New(11)
	for _, act := range []Activity{Sit, Walk, Downstairs} {
		ep := models[act].NewEpisode(r)
		t0, t1 := 3.1, 3.9
		got := ep.AvgEval(t0, t1)
		const steps = 20000
		var num Vec3
		dt := (t1 - t0) / steps
		for i := 0; i < steps; i++ {
			v := ep.Eval(t0 + (float64(i)+0.5)*dt)
			num = num.Add(v.Scale(dt / (t1 - t0)))
		}
		for ax := 0; ax < 3; ax++ {
			if math.Abs(got[ax]-num[ax]) > 1e-6 {
				t.Fatalf("%v axis %d: analytic %v numeric %v", act, ax, got[ax], num[ax])
			}
		}
	}
}

// TestSincosMatchesMath holds sincos to math.Sincos bit for bit: on
// arguments of both signs spread log-uniformly over [1e-3, 1e6], on
// arguments next to multiples of π/4 (the octant boundaries), and on
// the special and threshold cases.
func TestSincosMatchesMath(t *testing.T) {
	check := func(x float64) {
		s, c := sincos(x)
		ws, wc := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
			t.Fatalf("sincos(%v) = %v, %v; math.Sincos %v, %v", x, s, c, ws, wc)
		}
	}
	r := rng.New(29)
	for i := 0; i < 1<<20; i++ {
		x := math.Pow(10, -3+9*r.Float64())
		check(x)
		check(-x)
	}
	for k := 1; k < 1<<12; k++ {
		x := float64(k) * math.Pi / 4
		check(x)
		check(math.Nextafter(x, 0))
		check(math.Nextafter(x, math.Inf(1)))
		check(-x)
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-300, 0.5, 1,
		1 << 29, math.Nextafter(1<<29, 0), -(1 << 29), 1e12, -1e300, math.MaxFloat64,
	} {
		check(x)
	}
}

// avgEvalCosines is AvgEval's direct form, kept as its reference: six
// math.Cos calls per component, one per axis and endpoint.
func avgEvalCosines(e *Episode, t0, t1 float64) Vec3 {
	v := e.gravity
	dt := t1 - t0
	for _, c := range e.comps {
		w := 2 * math.Pi * c.freq
		if w == 0 {
			for ax := 0; ax < 3; ax++ {
				v[ax] += c.amp[ax] * math.Sin(c.phase[ax])
			}
			continue
		}
		for ax := 0; ax < 3; ax++ {
			v[ax] += c.amp[ax] * (math.Cos(w*t0+c.phase[ax]) - math.Cos(w*t1+c.phase[ax])) / (w * dt)
		}
	}
	return v
}

// TestAvgEvalMatchesPhaseShiftedCosines holds AvgEval's Sincos form to
// the direct cos(wt + φ) form for every activity model, over averaging
// windows from one internal sample (1/1600 s) to 20 s and start times up
// to an hour, and checks that a zero-frequency component contributes
// exactly a·sin φ.
func TestAvgEvalMatchesPhaseShiftedCosines(t *testing.T) {
	const tol = 1e-9 // m/s²
	windows := []float64{1.0 / 1600, 8.0 / 1600, 128.0 / 1600, 0.5, 2, 20}
	starts := []float64{0, 1e-3, 0.37, 4.2, 61.7, 299.9, 1234.5, 3599}
	r := rng.New(17)
	for _, m := range DefaultModels() {
		for rep := 0; rep < 4; rep++ {
			ep := m.NewEpisode(r)
			for _, w := range windows {
				for _, t0 := range starts {
					t0 += r.Float64()
					got, want := ep.AvgEval(t0, t0+w), avgEvalCosines(ep, t0, t0+w)
					for ax := 0; ax < 3; ax++ {
						if d := math.Abs(got[ax] - want[ax]); !(d <= tol) {
							t.Fatalf("%v [%v, %v] axis %d: AvgEval %v, cosine form %v (|Δ| = %.3g)",
								m.Activity, t0, t0+w, ax, got[ax], want[ax], d)
						}
					}
				}
			}
		}
	}
	ep := DefaultModels()[Sit].NewEpisode(r)
	ep.comps = ep.comps[:1]
	ep.comps[0].freq = 0
	if got, want := ep.AvgEval(1, 2), avgEvalCosines(ep, 1, 2); got != want {
		t.Fatalf("zero-frequency component: AvgEval %v, cosine form %v", got, want)
	}
}

func TestAvgEvalDegenerateInterval(t *testing.T) {
	ep := DefaultModels()[Walk].NewEpisode(rng.New(3))
	if ep.AvgEval(2, 2) != ep.Eval(2) {
		t.Fatal("degenerate interval should reduce to Eval")
	}
}

func TestAvgEvalAttenuatesHighFrequencies(t *testing.T) {
	// Averaging over a window much longer than the gait period should pull
	// the reading toward pure gravity (oscillations integrate out).
	ep := DefaultModels()[Walk].NewEpisode(rng.New(5))
	instant := ep.Eval(10)
	long := ep.AvgEval(0, 20)
	devInstant := instant.Add(ep.gravity.Scale(-1)).Norm()
	devLong := long.Add(ep.gravity.Scale(-1)).Norm()
	if devLong > devInstant/5 && devLong > 0.1 {
		t.Fatalf("long average did not attenuate oscillation: instant dev %v, long dev %v", devInstant, devLong)
	}
}

func TestStaticVsDynamicVariance(t *testing.T) {
	// Locomotion must produce visibly larger signal variance than postures;
	// otherwise the intensity baseline and the classifier have nothing to
	// work with.
	models := DefaultModels()
	r := rng.New(9)
	variance := func(a Activity) float64 {
		ep := models[a].NewEpisode(r)
		var sum, sumSq float64
		const n = 2000
		for i := 0; i < n; i++ {
			v := ep.Eval(float64(i) * 0.01)
			mag := v.Norm()
			sum += mag
			sumSq += mag * mag
		}
		mean := sum / n
		return sumSq/n - mean*mean
	}
	vSit := variance(Sit)
	vWalk := variance(Walk)
	if vWalk < 10*vSit {
		t.Fatalf("walk variance %v not well above sit variance %v", vWalk, vSit)
	}
}

func TestGravityOrientationsSeparate(t *testing.T) {
	// The three postures must have pairwise-distinct gravity directions;
	// mean features are their only separator.
	models := DefaultModels()
	dirs := []Vec3{models[Sit].gravityDir, models[Stand].gravityDir, models[LieDown].gravityDir}
	for i := 0; i < len(dirs); i++ {
		for j := i + 1; j < len(dirs); j++ {
			dot := dirs[i][0]*dirs[j][0] + dirs[i][1]*dirs[j][1] + dirs[i][2]*dirs[j][2]
			if dot > 0.95 {
				t.Fatalf("postures %d and %d nearly parallel (dot=%v)", i, j, dot)
			}
		}
	}
}

func TestFundamentalBandsDisjoint(t *testing.T) {
	models := DefaultModels()
	type band struct{ lo, hi float64 }
	bands := []band{
		{models[Upstairs].f0Lo, models[Upstairs].f0Hi},
		{models[Walk].f0Lo, models[Walk].f0Hi},
		{models[Downstairs].f0Lo, models[Downstairs].f0Hi},
	}
	for i := 0; i+1 < len(bands); i++ {
		if bands[i].hi >= bands[i+1].lo {
			t.Fatalf("fundamental bands overlap: %v vs %v", bands[i], bands[i+1])
		}
	}
}

// --- Schedule ---

func TestNewScheduleValidation(t *testing.T) {
	if _, err := NewSchedule(nil); err == nil {
		t.Fatal("empty schedule accepted")
	}
	if _, err := NewSchedule([]Segment{{Walk, 0}}); err == nil {
		t.Fatal("zero-duration segment accepted")
	}
	if _, err := NewSchedule([]Segment{{Activity(77), 5}}); err == nil {
		t.Fatal("invalid activity accepted")
	}
}

func TestScheduleLookup(t *testing.T) {
	s := MustSchedule(Segment{Sit, 60}, Segment{Walk, 60})
	if s.Total() != 120 {
		t.Fatalf("Total = %v", s.Total())
	}
	cases := map[float64]Activity{0: Sit, 30: Sit, 59.999: Sit, 60: Walk, 119: Walk, 500: Walk, -3: Sit}
	for tt, want := range cases {
		if got := s.ActivityAt(tt); got != want {
			t.Fatalf("ActivityAt(%v) = %v, want %v", tt, got, want)
		}
	}
}

func TestScheduleTransitions(t *testing.T) {
	s := MustSchedule(Segment{Sit, 10}, Segment{Walk, 20}, Segment{Stand, 5})
	// The activity changes exactly at the segment boundaries, 10 s and 30 s.
	for tt, want := range map[float64]Activity{9.999: Sit, 10: Walk, 29.999: Walk, 30: Stand} {
		if got := s.ActivityAt(tt); got != want {
			t.Fatalf("ActivityAt(%v) = %v, want %v", tt, got, want)
		}
	}
}

func TestDominantActivity(t *testing.T) {
	s := MustSchedule(Segment{Sit, 10}, Segment{Walk, 10})
	if got := s.DominantActivity(8.5, 10.5); got != Sit {
		t.Fatalf("window mostly sit classified as %v", got)
	}
	if got := s.DominantActivity(9.5, 11.5); got != Walk {
		t.Fatalf("window mostly walk classified as %v", got)
	}
	if got := s.DominantActivity(5, 5); got != Sit {
		t.Fatalf("degenerate dominant = %v", got)
	}
}

func TestScheduleIndexProperty(t *testing.T) {
	r := rng.New(21)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		s := RandomSchedule(rr, 300, 5, 30)
		// ActivityAt must agree with a linear scan at random times.
		for k := 0; k < 50; k++ {
			tt := r.Uniform(0, 300)
			var want Activity
			acc := 0.0
			for _, seg := range s.Segments() {
				if tt < acc+seg.Duration {
					want = seg.Activity
					break
				}
				acc += seg.Duration
				want = seg.Activity
			}
			if s.ActivityAt(tt) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomScheduleProperties(t *testing.T) {
	r := rng.New(33)
	s := RandomSchedule(r, 600, 10, 20)
	if math.Abs(s.Total()-600) > 1e-9 {
		t.Fatalf("Total = %v, want 600", s.Total())
	}
	segs := s.Segments()
	for i := 1; i < len(segs); i++ {
		if segs[i].Activity == segs[i-1].Activity {
			t.Fatal("consecutive segments share an activity")
		}
	}
	for i, seg := range segs {
		// Last segment may be truncated/extended by the sliver rule.
		if i < len(segs)-1 && (seg.Duration < 10 || seg.Duration > 20+1) {
			t.Fatalf("segment %d duration %v outside dwell bounds", i, seg.Duration)
		}
	}
}

func TestSettingDwellBounds(t *testing.T) {
	hiLo, hiHi := HighChange.DwellBounds()
	loLo, loHi := LowChange.DwellBounds()
	if hiHi >= loLo {
		t.Fatalf("High (%v-%v) and Low (%v-%v) dwell bounds should be well separated", hiLo, hiHi, loLo, loHi)
	}
	if LowChange.DwellBounds(); loLo < 60 {
		t.Fatal("Low setting must dwell at least 60 s per the paper")
	}
	if HighChange.String() != "High" || MediumChange.String() != "Medium" || LowChange.String() != "Low" {
		t.Fatal("setting names wrong")
	}
}

// --- Motion ---

func TestMotionSegmentsGetDistinctEpisodes(t *testing.T) {
	models := DefaultModels()
	s := MustSchedule(Segment{Walk, 30}, Segment{Sit, 10}, Segment{Walk, 30})
	m := NewMotion(models, s, rng.New(13))
	// Two walk segments should differ (different phases/cadence).
	a := m.Eval(5)
	b := m.Eval(45) // same offset into the second walk segment: 45-40=5
	if a == b {
		t.Fatal("distinct walk segments produced identical signals")
	}
}

func TestMotionAvgAcrossBoundary(t *testing.T) {
	models := DefaultModels()
	s := MustSchedule(Segment{Sit, 10}, Segment{Walk, 10})
	m := NewMotion(models, s, rng.New(17))
	got := m.AvgEval(9.5, 10.5)
	const steps = 40000
	var num Vec3
	dt := 1.0 / steps
	for i := 0; i < steps; i++ {
		v := m.Eval(9.5 + (float64(i)+0.5)*dt)
		num = num.Add(v.Scale(dt / 1.0))
	}
	for ax := 0; ax < 3; ax++ {
		if math.Abs(got[ax]-num[ax]) > 1e-5 {
			t.Fatalf("axis %d: analytic %v numeric %v", ax, got[ax], num[ax])
		}
	}
}

func TestMotionTremorFollowsSchedule(t *testing.T) {
	models := DefaultModels()
	s := MustSchedule(Segment{Sit, 10}, Segment{Downstairs, 10})
	m := NewMotion(models, s, rng.New(19))
	if m.Tremor(5) >= m.Tremor(15) {
		t.Fatal("downstairs should be noisier than sitting")
	}
}

func TestVec3Ops(t *testing.T) {
	v := Vec3{1, 2, 2}
	if v.Norm() != 3 {
		t.Fatalf("Norm = %v", v.Norm())
	}
	if got := v.Add(Vec3{1, 1, 1}); got != (Vec3{2, 3, 3}) {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 4}) {
		t.Fatalf("Scale = %v", got)
	}
}

var avgEvalSink Vec3

// BenchmarkEpisodeAvgEval times one reading's kernel: the average of a
// 12-component Walk episode over the F100_A128 averaging window (128
// internal samples at 1.6 kHz = 80 ms), at the 100-Hz reading times.
func BenchmarkEpisodeAvgEval(b *testing.B) {
	ep := DefaultModels()[Walk].NewEpisode(rng.New(1))
	if len(ep.comps) != 12 {
		b.Fatalf("walk episode has %d components, want 12", len(ep.comps))
	}
	const window = 128.0 / 1600
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := 4 + float64(i%200)*0.01
		avgEvalSink = ep.AvgEval(t-window, t)
	}
}

// BenchmarkSincos compares sincos with math.Sincos on the phases
// AvgEval evaluates: w·t for gait-band frequencies over an hour.
func BenchmarkSincos(b *testing.B) {
	r := rng.New(3)
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = 2 * math.Pi * (0.5 + 3*r.Float64()) * 3600 * r.Float64()
	}
	b.Run("sincos", func(b *testing.B) {
		var ss, cs float64
		for i := 0; i < b.N; i++ {
			s, c := sincos(xs[i%len(xs)])
			ss += s
			cs += c
		}
		sink = ss + cs
	})
	b.Run("math", func(b *testing.B) {
		var ss, cs float64
		for i := 0; i < b.N; i++ {
			s, c := math.Sincos(xs[i%len(xs)])
			ss += s
			cs += c
		}
		sink = ss + cs
	})
}

var sink float64
