package dataset

import (
	"testing"

	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/synth"
)

func smallSpec() GenSpec {
	return GenSpec{Windows: 240}
}

func TestGenerateDefaults(t *testing.T) {
	c, err := Generate(smallSpec(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 240 {
		t.Fatalf("Len = %d, want 240", c.Len())
	}
	if c.FeatureSize != 15 {
		t.Fatalf("FeatureSize = %d", c.FeatureSize)
	}
	for i, ex := range c.Examples {
		if len(ex.Features) != 15 {
			t.Fatalf("example %d feature size %d", i, len(ex.Features))
		}
		if !ex.Label.Valid() {
			t.Fatalf("example %d invalid label", i)
		}
	}
}

func TestGenerateBalanced(t *testing.T) {
	c, err := Generate(smallSpec(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var counts [synth.NumActivities]int
	for _, ex := range c.Examples {
		counts[ex.Label]++
	}
	for a, n := range counts {
		if n < 240/synth.NumActivities-20 || n > 240/synth.NumActivities+20 {
			t.Fatalf("class %v count %d far from balanced", synth.Activity(a), n)
		}
	}
	// Every Pareto config should appear.
	for _, cfg := range sensor.ParetoStates() {
		if c.FilterConfig(cfg).Len() == 0 {
			t.Fatalf("config %v absent from corpus", cfg.Name())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallSpec(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallSpec(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Examples {
		for j := range a.Examples[i].Features {
			if a.Examples[i].Features[j] != b.Examples[i].Features[j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenSpec{Configs: []sensor.Config{{FreqHz: -1, AvgWindow: 8}}}, rng.New(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Generate(GenSpec{EpisodeSec: 1, WindowSec: 2, HopSec: 1, Windows: 10}, rng.New(1)); err == nil {
		t.Fatal("episode shorter than window accepted")
	}
	if _, err := Generate(GenSpec{BinFreqsHz: []float64{-1}, Windows: 10}, rng.New(1)); err == nil {
		t.Fatal("bad bin freqs accepted")
	}
}

func TestXYParallel(t *testing.T) {
	c, err := Generate(smallSpec(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	X, Y := c.XY()
	if len(X) != c.Len() || len(Y) != c.Len() {
		t.Fatal("XY lengths wrong")
	}
	for i := range X {
		if &X[i][0] != &c.Examples[i].Features[0] {
			t.Fatal("XY should alias corpus storage")
		}
		if Y[i] != int(c.Examples[i].Label) {
			t.Fatal("labels misaligned")
		}
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	c, err := Generate(smallSpec(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	train, test := c.Split(0.25, rng.New(8))
	if train.Len()+test.Len() != c.Len() {
		t.Fatalf("split sizes %d+%d != %d", train.Len(), test.Len(), c.Len())
	}
	if test.Len() != 60 {
		t.Fatalf("test size = %d, want 60", test.Len())
	}
	seen := map[*float64]bool{}
	for _, ex := range train.Examples {
		seen[&ex.Features[0]] = true
	}
	for _, ex := range test.Examples {
		if seen[&ex.Features[0]] {
			t.Fatal("example appears in both splits")
		}
	}
}

func TestSplitPanicsOnBadFrac(t *testing.T) {
	c := &Corpus{}
	defer func() {
		if recover() == nil {
			t.Fatal("bad fraction did not panic")
		}
	}()
	c.Split(1.5, rng.New(1))
}

func TestFilterConfig(t *testing.T) {
	c, err := Generate(smallSpec(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sensor.ParetoStates()[0]
	sub := c.FilterConfig(cfg)
	for _, ex := range sub.Examples {
		if ex.Config != cfg {
			t.Fatal("FilterConfig leaked other configs")
		}
	}
	total := 0
	for _, cc := range sensor.ParetoStates() {
		total += c.FilterConfig(cc).Len()
	}
	if total != c.Len() {
		t.Fatalf("config partition covers %d of %d", total, c.Len())
	}
}
