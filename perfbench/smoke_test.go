package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// orchestrator re-executes its own binary for every phase, and marks those
// processes with childEnv.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestSmoke runs every workload once, untraced and traced, for a short
// time: every phase must pass its output checks and report every metric
// BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns benchmark processes")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := orchestrate(w, 1, 2, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !raceEnabled && (!res.Correct || res.Failed != 0 || res.Attempted < 1) {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := append([]metricDef{{"setup_s", "s"}, {"peak_rss_mb", "MiB"}}, e2eMetrics...)
			if traced {
				want = append(append([]metricDef{{"bench.trace_overhead_ratio", "1"}, {"failed_ratio", "1"}}, wallMetrics...), layerMetrics...)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.name, got, m.unit)
				}
			}
			for _, name := range []string{"setup_s", "peak_rss_mb", "quote_or_chain_cpu_ms", "flight_or_sweep_cpu_ms"} {
				if !traced && !raceEnabled && res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, name, res.Metrics[name].Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json's workloads and metrics to the ones
// the benchmark runs and reports. serve-lattice runs but is not listed: its
// CPU times spread too far between runs on a shared machine to carry a
// bound (see README.md).
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"serve-auto", "desk"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		units := make(map[string]string)
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		for _, m := range want {
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("%s: %s has unit %q, want %q", kind, m.name, u, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, append([]metricDef{{"setup_s", "s"}, {"peak_rss_mb", "MiB"}}, e2eMetrics...))
	check("per_layer", spec.PerLayer, append(append([]metricDef{{"bench.trace_overhead_ratio", "1"}, {"failed_ratio", "1"}}, wallMetrics...), layerMetrics...))
}
