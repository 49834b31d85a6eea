package main

import (
	"encoding/json"
	"os"
	"testing"

	"rsgen/internal/sched"
)

// TestEveryHeuristicHasMetrics keeps BENCHMARK.json's per-heuristic metrics
// in step with the scheduler: each heuristic the replay probes needs its
// schedule time and modeled-over-measured metrics listed.
func TestEveryHeuristicHasMetrics(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range bf.PerLayer {
		listed[m.Name] = true
	}
	for _, h := range sched.All() {
		for _, m := range []string{"sched.schedule_us." + h.Name(), "sched.modeled_over_measured." + h.Name()} {
			if !listed[m] {
				t.Errorf("BENCHMARK.json lists no %s", m)
			}
		}
	}
}
