package experiments

import (
	"strings"
	"sync"
	"testing"

	"adasense/internal/pareto"
	"adasense/internal/sensor"
)

var (
	labOnce sync.Once
	labInst *Lab
	labErr  error
)

func quickLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		labInst, labErr = NewQuickLab(2026)
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return labInst
}

func TestTable1(t *testing.T) {
	res := Table1()
	if len(res.Rows) != 16 {
		t.Fatalf("Table I rows = %d", len(res.Rows))
	}
	paretoCount := 0
	normalCount := 0
	for _, r := range res.Rows {
		if r.Pareto {
			paretoCount++
		}
		if r.Mode.String() == "normal" {
			normalCount++
			if r.DutyCycle != 1 {
				t.Fatalf("%s normal mode with duty %v", r.Config.Name(), r.DutyCycle)
			}
		}
	}
	if paretoCount != 4 {
		t.Fatalf("Pareto marks = %d, want 4", paretoCount)
	}
	if normalCount != 4 { // F100/F50/F25/F12.5 at A128 cannot duty-cycle
		t.Fatalf("normal-mode configs = %d, want 4", normalCount)
	}
	out := res.Render()
	for _, want := range []string{"F100_A128", "F6.25_A8", "Table I"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFSMRender(t *testing.T) {
	out := FSM().Render()
	for _, want := range []string{"C4 stay", "conf >= 0.85", "F12.5_A8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FSM render missing %q:\n%s", want, out)
		}
	}
}

func TestOverheadIbAPaysForDerivative(t *testing.T) {
	res := Overhead()
	if len(res.Rows) != 4 {
		t.Fatalf("overhead rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.IbACycles <= r.AdaSenseCycles {
			t.Fatalf("IbA cycles %d not above AdaSense %d", r.IbACycles, r.AdaSenseCycles)
		}
		if r.IbAUC <= r.AdaSenseUC {
			t.Fatal("IbA charge not above AdaSense")
		}
	}
	if !strings.Contains(res.Render(), "overhead") {
		t.Fatal("render missing header")
	}
}

func TestMemoryClaims(t *testing.T) {
	lab := quickLab(t)
	m := lab.Memory()
	if m.BankBytes != 2*m.SharedBytes {
		t.Fatalf("bank = %d, want 2× shared %d", m.BankBytes, m.SharedBytes)
	}
	if m.PerConfigBytes != 4*m.SharedBytes {
		t.Fatalf("per-config = %d, want 4× shared", m.PerConfigBytes)
	}
	if m.SharedQ15Bytes >= m.SharedBytes {
		t.Fatal("Q15 not smaller than float32")
	}
	out := m.Render()
	if !strings.Contains(out, "2.0x") || !strings.Contains(out, "4.0x") {
		t.Fatalf("render missing ratios:\n%s", out)
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop experiment")
	}
	lab := quickLab(t)
	res, err := lab.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// Descent: the floor must be reached near threshold+3 ticks (paper:
	// ~28 s).
	if res.FloorReachedAt < 25 || res.FloorReachedAt > 32 {
		t.Fatalf("floor reached at %v s, want ~28", res.FloorReachedAt)
	}
	// Snap back within a few seconds of the activity change at 60 s.
	if res.SnapBackAt < 60 || res.SnapBackAt > 66 {
		t.Fatalf("snap back at %v s, want shortly after 60", res.SnapBackAt)
	}
	// Second descent completes.
	if res.SecondFloorAt < 0 || res.SecondFloorAt > 100 {
		t.Fatalf("second floor at %v s", res.SecondFloorAt)
	}
	if res.Run.AvgSensorCurrentUA >= 180 {
		t.Fatal("SPOT drew baseline power")
	}
	if !strings.Contains(res.Render(), "Fig. 5") {
		t.Fatal("render missing header")
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop sweep")
	}
	lab := quickLab(t)
	res, err := lab.Fig6(Fig6Spec{
		Thresholds:  []int{0, 10, 30, 60},
		Repeats:     2,
		ScheduleSec: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	// Fig. 6a: accuracy rises with the threshold toward the baseline.
	if first.SPOTAcc >= last.SPOTAcc {
		t.Fatalf("SPOT accuracy did not rise: %v -> %v", first.SPOTAcc, last.SPOTAcc)
	}
	if last.SPOTAcc < first.BaselineAcc-0.02 {
		t.Fatalf("SPOT accuracy at 60 s (%v) should approach baseline (%v)", last.SPOTAcc, first.BaselineAcc)
	}
	// Fig. 6b: power rises with the threshold and matches the baseline at
	// 60 s (dwell times are below one minute).
	if first.SPOTPow >= last.SPOTPow {
		t.Fatalf("SPOT power did not rise: %v -> %v", first.SPOTPow, last.SPOTPow)
	}
	if last.SPOTPow < 0.97*last.BaselinePow {
		t.Fatalf("SPOT power at 60 s = %v, want ~baseline %v", last.SPOTPow, last.BaselinePow)
	}
	// The confidence gate saves more power than plain SPOT overall.
	if res.AvgSavingConf <= res.AvgSavingSPOT {
		t.Fatalf("confidence saving %v not above plain %v", res.AvgSavingConf, res.AvgSavingSPOT)
	}
	// Substantial operating-point savings (paper: 60 % / 69 %).
	if res.OpSavingSPOT < 0.35 || res.OpSavingConf < 0.45 {
		t.Fatalf("operating-point savings too small: %v / %v", res.OpSavingSPOT, res.OpSavingConf)
	}
	if !strings.Contains(res.Render(), "stability threshold") {
		t.Fatal("render missing header")
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop comparison")
	}
	lab := quickLab(t)
	res, err := lab.Fig7(Fig7Spec{Repeats: 2, ScheduleSec: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	high, medium, low := res.Rows[0], res.Rows[1], res.Rows[2]
	// At the High setting AdaSense loses to IbA (paper: 10.7 vs 9.3).
	if high.AdaSensePow <= high.IbAPow {
		t.Fatalf("High: AdaSense %v should draw more than IbA %v", high.AdaSensePow, high.IbAPow)
	}
	// At Medium and Low it wins by at least the paper's 25 %.
	for _, row := range []Fig7Row{medium, low} {
		if saving := 1 - row.AdaSensePow/row.IbAPow; saving < 0.25 {
			t.Fatalf("%v: AdaSense saving %v below 25%%", row.Setting, saving)
		}
	}
	// AdaSense's power decreases as the user gets more stable.
	if !(high.AdaSensePow > medium.AdaSensePow && medium.AdaSensePow > low.AdaSensePow) {
		t.Fatal("AdaSense power should fall from High to Low")
	}
	// IbA's power is roughly setting-independent (within 20 %).
	if low.IbAPow < 0.8*high.IbAPow {
		t.Fatalf("IbA power varies too much: %v vs %v", high.IbAPow, low.IbAPow)
	}
	// Accuracy: AdaSense runs below the per-configuration classifiers,
	// but not catastrophically (paper prose: 1–1.5 %; ours: a few %).
	for _, row := range res.Rows {
		if row.AdaSenseAcc > row.IbAAcc+0.02 {
			t.Fatalf("%v: AdaSense accuracy above IbA contradicts the paper's prose", row.Setting)
		}
		if row.AdaSenseAcc < row.IbAAcc-0.08 {
			t.Fatalf("%v: AdaSense accuracy %v too far below IbA %v", row.Setting, row.AdaSenseAcc, row.IbAAcc)
		}
	}
	if !strings.Contains(res.Render(), "IbA") {
		t.Fatal("render missing header")
	}
}

func TestFeatureAblationSaturatesAtThreeBins(t *testing.T) {
	if testing.Short() {
		t.Skip("trains seven classifiers")
	}
	lab := quickLab(t)
	res, err := lab.FeatureAblation(1800)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	acc := func(bins int) float64 { return res.Rows[bins].Accuracy }
	// Spectral features must help substantially over stats alone.
	if acc(3) < acc(0)+0.03 {
		t.Fatalf("3 bins (%v) should clearly beat 0 bins (%v)", acc(3), acc(0))
	}
	// And accuracy saturates: going to 6 bins buys far less than the
	// first three did. (Our synthetic gait keeps some harmonic content
	// just above 3 Hz, so saturation is softer than the paper's; the
	// full-size run is `adasense-experiments -run all`, and ROADMAP.md
	// item 3 discusses the spectral bins.)
	if acc(6) > acc(3)+0.045 {
		t.Fatalf("6 bins (%v) should not beat 3 bins (%v) by much", acc(6), acc(3))
	}
	// The paper's ~97 % ballpark with 3 coefficients.
	if acc(3) < 0.90 {
		t.Fatalf("3-bin accuracy %v below plausible band", acc(3))
	}
	if !strings.Contains(res.Render(), "Fourier") {
		t.Fatal("render missing header")
	}
}

func TestConfidenceAblationMonotonePower(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop sweep")
	}
	lab := quickLab(t)
	res, err := lab.ConfidenceAblation(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 0.85 gate must save power over no gate. (An extreme
	// gate like 0.99 can backfire: it suppresses even real changes, so
	// the FSM freezes wherever it was — the ablation exists to show 0.85
	// is a sweet spot, so no monotonicity is asserted.)
	byConf := map[float64]float64{}
	for _, row := range res.Rows {
		byConf[row.Confidence] = row.PowerUA
	}
	if byConf[0.85] >= byConf[0] {
		t.Fatalf("0.85 gate power %v not below ungated %v", byConf[0.85], byConf[0])
	}
	if !strings.Contains(res.Render(), "0.85") {
		t.Fatal("render missing threshold")
	}
}

func TestFixedPointAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates a corpus")
	}
	lab := quickLab(t)
	res, err := lab.FixedPointAblation(1200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Q15Accuracy < res.FloatAccuracy-0.02 {
		t.Fatalf("Q15 accuracy %v too far below float %v", res.Q15Accuracy, res.FloatAccuracy)
	}
	if res.Q15Bytes >= res.FloatBytes {
		t.Fatal("Q15 bytes not smaller")
	}
	if !strings.Contains(res.Render(), "Q15") {
		t.Fatal("render missing header")
	}
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains sixteen classifiers")
	}
	lab := quickLab(t)
	res, err := lab.Fig2(Fig2Spec{TrainWindows: 1500, TestWindows: 1200, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exploration.Points) != 16 {
		t.Fatalf("points = %d", len(res.Exploration.Points))
	}
	// At test-scale corpora the per-point noise is ±1-2 %, so assert with
	// a matching ε (the full-size run, `adasense-experiments -run all`,
	// uses ε = 1 %; ROADMAP.md item 3 records its numbers).
	idxByName := map[string]int{}
	for i, p := range res.Exploration.Points {
		idxByName[p.Config.Name()] = i
	}
	for _, cfg := range sensor.ParetoStates() {
		if !pareto.EpsilonNonDominated(res.Exploration.Points, idxByName[cfg.Name()], 0.025) {
			t.Errorf("paper state %s ε-dominated beyond test tolerance", cfg.Name())
		}
	}
	if !res.DominatedExampleOK {
		t.Error("F6.25_A128 should be dominated")
	}
	if !strings.Contains(res.Render(), "frontier") {
		t.Fatal("render missing frontier")
	}
}

func TestHiddenWidthAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains five classifiers")
	}
	lab := quickLab(t)
	res, err := lab.HiddenWidthAblation(1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Bytes grow monotonically with width.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Bytes <= res.Rows[i-1].Bytes {
			t.Fatal("bytes not monotone in width")
		}
	}
	// The finding this sweep documents: capacity is NOT the bottleneck —
	// the rate-invariant features carry the problem, so every width from
	// 4 to 64 lands in the same accuracy band. Assert the band, not a
	// monotone trend that does not exist.
	for _, row := range res.Rows {
		if row.Accuracy < 0.85 {
			t.Fatalf("width %d accuracy %v below the common band", row.Hidden, row.Accuracy)
		}
	}
	if !strings.Contains(res.Render(), "hidden") {
		t.Fatal("render missing header")
	}
}

func TestDescendModeAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop comparison")
	}
	lab := quickLab(t)
	res, err := lab.DescendModeAblation(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Count-once descends faster, so it must draw less power.
	if res.CountOncePowerUA >= res.CountPerStatePowerUA {
		t.Fatalf("count-once (%v) should draw less than count-per-state (%v)",
			res.CountOncePowerUA, res.CountPerStatePowerUA)
	}
	if !strings.Contains(res.Render(), "count-once") {
		t.Fatal("render missing header")
	}
}

func TestFeatureFamilyAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three classifiers")
	}
	lab := quickLab(t)
	res, err := lab.FeatureFamilyAblation(1800)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	stats, fourier, wavelet := res.Rows[0], res.Rows[1], res.Rows[2]
	// Spectral families must clearly beat statistics alone.
	if fourier.Accuracy < stats.Accuracy+0.05 || wavelet.Accuracy < stats.Accuracy+0.05 {
		t.Fatalf("spectral features should beat stats: %v / %v vs %v",
			fourier.Accuracy, wavelet.Accuracy, stats.Accuracy)
	}
	// The wavelet family pays for its wider feature vector.
	if wavelet.FeatureSize <= fourier.FeatureSize {
		t.Fatal("wavelet feature vector should be wider")
	}
	if wavelet.CyclesPerWin <= stats.CyclesPerWin {
		t.Fatal("wavelet pipeline should cost more than stats alone")
	}
	if !strings.Contains(res.Render(), "wavelet") {
		t.Fatal("render missing family name")
	}
}
