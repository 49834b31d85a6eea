// Package replayio is the file format between the benchmark driver and the
// traced replay: the driver writes an Input of sampled operations, the
// replay answers with an Output of per-layer span aggregates.
package replayio

import "encoding/json"

// Input is one workload's sample for the replay.
type Input struct {
	Workload string `json:"workload"`
	Models   string `json:"models"` // model artifact path
	Dir      string `json:"dir"`    // state, log and spans directory
	// Platform is the PUT /v1/platform body (lifecycle and advise).
	Platform json.RawMessage `json:"platform,omitempty"`
	// Hold are DAGs of leases taken before the passes and held through
	// them (advise).
	Hold  []json.RawMessage `json:"hold,omitempty"`
	Warm  []Op              `json:"warm"` // replayed untraced before each pass
	Ops   []Op              `json:"ops"`  // the timed sample
	Pairs int               `json:"pairs"`
}

// Op is one benchmark operation.
type Op struct {
	I          int               `json:"i"`
	Dags       []json.RawMessage `json:"dags"`
	Backends   []string          `json:"backends,omitempty"`    // lifecycle
	SearchSeed uint64            `json:"search_seed,omitempty"` // advise
	Factor     float64           `json:"factor,omitempty"`      // lifecycle: observed over predicted makespan
}

// Output is the replay's answer.
type Output struct {
	Layers   []Layer               `json:"layers"`
	Evals    int                   `json:"moga_evaluations"`
	Sched    map[string][2]float64 `json:"sched"` // heuristic → modeled, measured seconds
	Untraced []float64             `json:"untraced_s"`
	Traced   []float64             `json:"traced_s"`
}

// Layer aggregates one span name within a group: "op" for the timed
// pipeline, "probe" for the untimed per-layer probes.
type Layer struct {
	Group   string `json:"group"`
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}
