package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json declares the metrics this package prints; the two must
// name the same metrics, in the same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command   []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind  string
		decl  []metricDecl
		table []spec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.decl) != len(c.table) {
			t.Fatalf("%s: %d declared, %d reported", c.kind, len(c.decl), len(c.table))
		}
		for i, d := range c.decl {
			if d.Name != c.table[i].name || d.Unit != c.table[i].unit {
				t.Errorf("%s %d: declared %s (%s), reported %s (%s)", c.kind, i, d.Name, d.Unit, c.table[i].name, c.table[i].unit)
			}
		}
	}
	var setup float64
	for _, d := range doc.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range doc.EndToEnd {
		if d.Bound > setup {
			t.Errorf("%s has a wider bound (%v) than setup_s (%v)", d.Name, d.Bound, setup)
		}
	}
}
