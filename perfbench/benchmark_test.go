package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkFileMatchesDriver keeps BENCHMARK.json, which the runs are
// judged against, in step with the metrics and workloads the driver prints.
func TestBenchmarkFileMatchesDriver(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the workloads steady enough to gate on, a subset
	// of the driver's. Each why states the workload's open-loop rate, latency
	// limit, and the tail percentile and group size its rate gives over
	// run_seconds.
	for _, w := range bf.Workloads {
		wl, err := lookupWorkload(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		perRound := int(wl.rate*(1-closedShare)*float64(bf.RunSeconds)/rounds + 0.5)
		n := perRound * rounds / tailGroups
		tag := fmt.Sprintf("open loop %g/s, SLO %d ms, tail %s in %d groups of %d",
			wl.rate, wl.limit/time.Millisecond, percentileName(tailPermille(n)), tailGroups, n)
		if !strings.Contains(w.Why, tag) {
			t.Errorf("%s: why %q does not state %q", w.Name, w.Why, tag)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, driver []metricDef) {
		if len(file) != len(driver) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, driver prints %d", kind, len(file), len(driver))
			return
		}
		for i, m := range driver {
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), driver %s (%s)", kind, i, file[i].Name, file[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics)
}
