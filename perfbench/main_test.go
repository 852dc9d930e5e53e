package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d] = %v, BENCHMARK.json has %s %s", kind, i, got[i], want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
}
