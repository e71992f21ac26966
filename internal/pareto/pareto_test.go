package pareto

import (
	"testing"

	"adasense/internal/rng"
	"adasense/internal/sensor"
)

func mkPoint(cur, acc float64) Point {
	return Point{CurrentUA: cur, Accuracy: acc}
}

func TestFrontIndicesBasic(t *testing.T) {
	points := []Point{
		mkPoint(100, 0.98), // front
		mkPoint(50, 0.95),  // front
		mkPoint(60, 0.94),  // dominated by (50, 0.95)
		mkPoint(10, 0.90),  // front
		mkPoint(10, 0.85),  // dominated by (10, 0.90)
	}
	got := FrontIndices(points)
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("FrontIndices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FrontIndices = %v, want %v", got, want)
		}
	}
}

func TestFrontIndicesDuplicatesKeepFirst(t *testing.T) {
	points := []Point{mkPoint(50, 0.9), mkPoint(50, 0.9)}
	got := FrontIndices(points)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("duplicate handling wrong: %v", got)
	}
}

func TestFrontIndicesSinglePoint(t *testing.T) {
	got := FrontIndices([]Point{mkPoint(1, 0.5)})
	if len(got) != 1 {
		t.Fatalf("single point should be on front: %v", got)
	}
}

func TestFrontAllOnDiagonal(t *testing.T) {
	// Strictly increasing accuracy with current: everything on the front.
	var points []Point
	for i := 0; i < 10; i++ {
		points = append(points, mkPoint(float64(10+i*10), 0.80+float64(i)*0.01))
	}
	if got := FrontIndices(points); len(got) != 10 {
		t.Fatalf("diagonal front size = %d, want 10", len(got))
	}
}

func TestEpsilonNonDominated(t *testing.T) {
	points := []Point{
		mkPoint(50, 0.960),
		mkPoint(40, 0.964), // beats point 0 by 0.4 % at lower current
	}
	if EpsilonNonDominated(points, 0, 0) {
		t.Fatal("point 0 should be strictly dominated")
	}
	if !EpsilonNonDominated(points, 0, 0.01) {
		t.Fatal("point 0 should survive ε=1 %")
	}
	if !EpsilonNonDominated(points, 1, 0) {
		t.Fatal("point 1 should be non-dominated")
	}
}

// TestExploreShape runs a reduced exploration and asserts the qualitative
// properties of the paper's Fig. 2 that the reproduction targets.
func TestExploreShape(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration is seconds-long; skipped in -short mode")
	}
	res, err := Explore(Spec{TrainWindows: 2000, TestWindows: 1500, Replicas: 2}, rng.New(20260612))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 16 {
		t.Fatalf("explored %d points, want 16", len(res.Points))
	}
	byName := map[string]Point{}
	idxByName := map[string]int{}
	for i, p := range res.Points {
		byName[p.Config.Name()] = p
		idxByName[p.Config.Name()] = i
	}

	// All accuracies in a plausible recognition band.
	for _, p := range res.Points {
		if p.Accuracy < 0.80 || p.Accuracy > 0.999 {
			t.Errorf("%s accuracy %.3f outside [0.80, 0.999]", p.Config.Name(), p.Accuracy)
		}
	}

	// The top configuration is (near-)best: nothing beats F100_A128 by
	// more than the two-replica noise floor (~1.5 %).
	top := byName["F100_A128"]
	for _, p := range res.Points {
		if p.Accuracy > top.Accuracy+0.015 {
			t.Errorf("%s accuracy %.3f exceeds F100_A128 %.3f by more than 1.5 %%",
				p.Config.Name(), p.Accuracy, top.Accuracy)
		}
	}

	// The paper's four SPOT states are ε-non-dominated.
	for _, cfg := range sensor.ParetoStates() {
		if !EpsilonNonDominated(res.Points, idxByName[cfg.Name()], 0.015) {
			t.Errorf("paper state %s is ε-dominated", cfg.Name())
		}
	}

	// The paper's dominance example: F6.25_A128 is strictly dominated.
	if EpsilonNonDominated(res.Points, idxByName["F6.25_A128"], 0) {
		t.Error("F6.25_A128 should be dominated (paper Fig. 2 example)")
	}

	// Rate trend: at the widest window, the slowest rate must recognize
	// worse than the fastest (aliasing + estimator variance).
	if byName["F6.25_A128"].Accuracy >= byName["F100_A128"].Accuracy {
		t.Error("accuracy should increase with rate at A128")
	}

	// Currents must span the normal-mode ceiling down to a deep-low-power
	// floor (paper: ~180 down to tens of µA).
	if top.CurrentUA != 180 {
		t.Errorf("F100_A128 current = %v, want 180 (normal mode)", top.CurrentUA)
	}
	if floor := byName["F6.25_A8"].CurrentUA; floor > 15 {
		t.Errorf("F6.25_A8 current = %v, want < 15 µA", floor)
	}

	// The frontier must contain at least the extremes and be sorted by
	// descending current.
	if len(res.Front) < 3 {
		t.Fatalf("front has only %d points", len(res.Front))
	}
	for i := 1; i < len(res.Front); i++ {
		if res.Front[i].CurrentUA > res.Front[i-1].CurrentUA {
			t.Fatal("front not sorted by descending current")
		}
		if res.Front[i].Accuracy > res.Front[i-1].Accuracy {
			t.Fatal("front accuracy should not increase as current drops")
		}
	}
}
