package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metrics a run prints are exactly those BENCHMARK.json declares, with
// the same units.
func TestUnitsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		decl  []struct{ Name, Unit string }
		units map[string]string
	}{{"end_to_end", decl.EndToEnd, e2eUnits}, {"per_layer", decl.PerLayer, layerUnits()}} {
		if len(c.decl) != len(c.units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", c.kind, len(c.decl), len(c.units))
		}
		for _, m := range c.decl {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s declared in %s, reported in %q", c.kind, m.Name, m.Unit, u)
			}
		}
	}
}
