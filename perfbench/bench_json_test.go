package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric tables the benchmark prints must be the ones BENCHMARK.json
// declares, name for name and unit for unit.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", tc.name, len(tc.got), len(tc.want))
			continue
		}
		for i := range tc.got {
			if tc.got[i] != tc.want[i] {
				t.Errorf("%s[%d]: benchmark prints %v, BENCHMARK.json lists %v", tc.name, i, tc.got[i], tc.want[i])
			}
		}
	}
}
