package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestShortRuns runs every workload of BENCHMARK.json for one second in
// both modes and checks that each prints every metric the file names,
// with its unit, and that the correctness gate ran and passed.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("each paper_suite pass takes about half a minute")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gateway := filepath.Join(dir, "adasense-gateway")
	build := exec.Command("go", "build", "-o", gateway, "./cmd/adasense-gateway")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the gateway: %v\n%s", err, out)
	}
	for _, wl := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			t.Run(wl.Name+map[int]string{0: "/untraced", 1: "/traced"}[trace], func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(&out, wl.Name, 7, 1, trace, gateway, -1, filepath.Join(dir, "work"))
				if err != nil {
					t.Fatal(err)
				}
				if err := printResult(&out, res); err != nil {
					t.Fatal(err)
				}
				if !res.correct {
					t.Fatalf("correctness gate failed:\n%s", out.String())
				}
				if !strings.Contains(out.String(), "correctness gate passed") {
					t.Errorf("no correctness gate ran:\n%s", out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct bool `json:"correct"`
					Metrics map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(last.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}
