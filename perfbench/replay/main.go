// Command replay is the traced half of the rsgend benchmark. It reads a
// sample of one workload's operations from a JSON file the benchmark
// driver wrote, sends them through an in-process copy of rsgend's serving
// stack (each layer's public functions, in the order rsgend calls them) in
// alternating untraced and traced passes, writes every span to spans.json
// in the replay directory, and prints per-layer counts, total and self
// times as one JSON object on standard output.
//
// It is the only part of the benchmark that imports rsgen's internal
// packages, so the untraced benchmark builds the same on any commit.
//
//	replay -in ops.json > layers.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rsgen/internal/eval"
	"rsgen/perfbench/replayio"
)

func main() {
	in := flag.String("in", "", "operations file written by the benchmark driver")
	flag.Parse()
	out, err := run(*in)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run(path string) (*replayio.Output, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var in replayio.Input
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ip, err := newInproc(in.Workload, in.Models, in.Dir, in.Platform)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	if err := ip.hold(in.Hold); err != nil {
		return nil, err
	}
	// Untraced and traced passes alternate so drift in machine speed
	// during the run does not masquerade as tracing overhead.
	tr := newTracer()
	out := &replayio.Output{Sched: map[string][2]float64{}}
	for pass := 0; pass < 2*in.Pairs; pass++ {
		// Each pass starts from the same state: a cold mirror of rsgend's
		// response cache and an empty evaluation memo, then the warm-up ops.
		ip.cache, ip.tr = newSpecLRU(), nil
		eval.DefaultCache.Clear()
		for _, o := range in.Warm {
			if _, err := ip.op(o); err != nil {
				return nil, fmt.Errorf("warm-up op %d: %w", o.I, err)
			}
		}
		if pass%2 == 1 {
			ip.tr = tr
		}
		var total time.Duration
		for _, o := range in.Ops {
			took, err := ip.op(o)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", o.I, err)
			}
			total += took
		}
		if pass%2 == 1 {
			out.Traced = append(out.Traced, total.Seconds())
		} else {
			out.Untraced = append(out.Untraced, total.Seconds())
		}
	}
	if err := tr.write(filepath.Join(in.Dir, "spans.json")); err != nil {
		return nil, err
	}

	// Pipeline spans sit under "op" roots; probes under "probe" roots.
	roots := map[int]string{}
	for _, s := range tr.spans {
		if s.Parent < 0 {
			roots[s.Trace] = s.Name
		}
	}
	groups := map[string][]span{}
	for _, s := range tr.spans {
		groups[roots[s.Trace]] = append(groups[roots[s.Trace]], s)
	}
	for _, g := range []string{"op", "probe"} {
		for _, st := range layerStats(groups[g]) {
			out.Layers = append(out.Layers, replayio.Layer{Group: g, Name: st.Name, Count: st.Count,
				TotalNs: int64(st.Total), SelfNs: int64(st.Self)})
		}
	}
	out.Evals = ip.evals
	for h, c := range ip.schedCost {
		out.Sched[h] = *c
	}
	return out, nil
}
