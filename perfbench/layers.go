package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"rsgen/perfbench/replayio"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are printed with -trace 0, in BENCHMARK.json order.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"slo_attainment", "ratio"},
	{"server_cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MiB"},
}

// heuristics are sched.All()'s names, fixed here because BENCHMARK.json
// lists one metric per heuristic. A traced run fails on a heuristic or span
// the driver has no metric for.
var heuristics = []string{"FCFS", "FCA", "Greedy", "MCP", "DLS"}

// stages are the values of rsgend_stage_duration_seconds{stage}.
var stages = []string{"decode", "cache", "await", "members", "generate", "alternatives", "select", "lease", "bind", "swap", "advise"}

// spanMetrics maps a traced span name to its per-call self-time metric.
var spanMetrics = func() map[string]metricDef {
	m := map[string]metricDef{
		"dag.decode":        {"dag.decode_us", "us"},
		"dag.normalize":     {"dag.normalize_us", "us"},
		"dag.fingerprint":   {"dag.fingerprint_us", "us"},
		"spec.generate":     {"spec.generate_us", "us"},
		"spec.alternatives": {"spec.alternatives_ms", "ms"},
		"knee.predict_size": {"knee.predict_size_us", "us"},
		"heurpred.predict":  {"heurpred.predict_us", "us"},
		"vgdl.find":         {"vgdl.find_us", "us"},
		"classad.match":     {"classad.match_us", "us"},
		"sword.select":      {"sword.select_us", "us"},
		"broker.select":     {"broker.select_us", "us"},
		"broker.release":    {"broker.release_us", "us"},
		"durable.acquire":   {"durable.acquire_us", "us"},
		"durable.release":   {"durable.release_us", "us"},
		"moga.search":       {"moga.search_ms", "ms"},
		"obs.record":        {"obs.record_us", "us"},
		"obs.log_append":    {"obs.log_append_us", "us"},
	}
	for _, h := range heuristics {
		m["sched.schedule."+h] = metricDef{"sched.schedule_us." + h, "us"}
	}
	return m
}()

// perLayerMetrics are printed with -trace 1, in BENCHMARK.json order.
var perLayerMetrics = func() []metricDef {
	var ms []metricDef
	for _, m := range spanMetrics {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, h := range heuristics {
		ms = append(ms, metricDef{"sched.modeled_over_measured." + h, "ratio"})
	}
	ms = append(ms,
		metricDef{"moga.evals_per_s", "1/s"},
		metricDef{"service.unattributed_ms", "ms"},
		metricDef{"trace.e2e_ms", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"service.exact_hit_ratio", "ratio"},
		metricDef{"service.shape_hit_ratio", "ratio"},
		metricDef{"service.flight_share_ratio", "ratio"},
		metricDef{"service.evictions_per_op", "count"},
		metricDef{"eval.points_per_op", "count"},
		metricDef{"eval.cache_hit_ratio", "ratio"},
		metricDef{"sched.state_allocs_per_get", "ratio"},
		metricDef{"broker.attempts_per_select", "count"},
		metricDef{"broker.bound_ratio", "ratio"},
		metricDef{"durable.wal_append_us", "us"},
		metricDef{"durable.wal_bytes_per_op", "B"},
		metricDef{"moga.evals_per_search", "count"},
		metricDef{"reconcile.cycle_ms", "ms"},
	)
	for _, s := range stages {
		ms = append(ms, metricDef{"stage." + s + "_ms", "ms"})
	}
	return append(ms, metricDef{"loadgen.lag_p99_ms", "ms"}, metricDef{"fail_ratio", "ratio"})
}()

// sumSeries adds every series of family name whose labels contain all of
// the given label pairs.
func (m metrics) sumSeries(name string, labels ...string) float64 {
	var s float64
	for k, v := range m {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(k, l)
		}
		if match {
			s += v
		}
	}
	return s
}

// serverLayers derives the per-layer counts and ratios from rsgend's own
// /metrics over the untraced closed loop (delta, ops operations) and over
// the whole run (whole) for the slow reconciler cycle.
func serverLayers(delta, whole metrics, ops float64) map[string]metric {
	hits, misses := delta.sumSeries("rsgend_spec_cache_hits_total"), delta.sumSeries("rsgend_spec_cache_misses_total")
	lookups := hits + misses
	rungs := delta.sumSeries("rsgend_broker_rung_attempts_total")
	out := map[string]metric{
		"service.exact_hit_ratio":    {ratio(hits, lookups), "ratio"},
		"service.shape_hit_ratio":    {ratio(delta.sumSeries("rsgend_coalesce_hits_total", `kind="cache"`), lookups), "ratio"},
		"service.flight_share_ratio": {ratio(delta.sumSeries("rsgend_coalesce_hits_total", `kind="flight"`)+delta.sumSeries("rsgend_dedup_shared_total"), lookups), "ratio"},
		"service.evictions_per_op":   {ratio(delta.sumSeries("rsgend_spec_cache_evictions_total"), ops), "count"},
		"eval.points_per_op":         {ratio(delta.sumSeries("rsgend_eval_points_total"), ops), "count"},
		"eval.cache_hit_ratio": {ratio(delta.sumSeries("rsgend_eval_cache_hits_total"),
			delta.sumSeries("rsgend_eval_cache_hits_total")+delta.sumSeries("rsgend_eval_cache_misses_total")), "ratio"},
		"sched.state_allocs_per_get": {ratio(delta.sumSeries("rsgend_sched_state_allocs_total"), delta.sumSeries("rsgend_sched_state_gets_total")), "ratio"},
		"broker.attempts_per_select": {ratio(rungs, delta.sumSeries("rsgend_broker_selections_total")), "count"},
		"broker.bound_ratio":         {ratio(delta.sumSeries("rsgend_broker_rung_attempts_total", `stage="bound"`), rungs), "ratio"},
		"durable.wal_append_us":      {1e6 * ratio(delta.sumSeries("rsgend_store_wal_append_seconds_sum"), delta.sumSeries("rsgend_store_wal_append_seconds_count")), "us"},
		"durable.wal_bytes_per_op":   {ratio(delta.sumSeries("rsgend_store_wal_bytes_total"), ops), "B"},
		"moga.evals_per_search":      {ratio(delta.sumSeries("rsgend_moga_evaluations_total"), delta.sumSeries("rsgend_moga_searches_total")), "count"},
		"reconcile.cycle_ms":         {1e3 * ratio(whole.sumSeries("rsgend_reconcile_cycle_seconds_sum"), whole.sumSeries("rsgend_reconcile_cycle_seconds_count")), "ms"},
	}
	for _, s := range stages {
		out["stage."+s+"_ms"] = metric{1e3 * ratio(delta.sumSeries("rsgend_stage_duration_seconds_sum", `stage="`+s+`"`), ops), "ms"}
	}
	return out
}

// stageLayers pairs each rsgend stage with the traced layers that do its
// work, for the side-by-side table.
var stageLayers = map[string][]string{
	"decode":       {"dag.decode"},
	"cache":        {"dag.fingerprint", "dag.normalize"},
	"generate":     {"spec.generate"},
	"alternatives": {"spec.alternatives"},
	"select":       {"broker.select"},
	"lease":        {"durable.acquire"},
	"advise":       {"moga.search"},
}

// printStages prints the untraced stage breakdown next to the traced
// per-layer self times, both per operation.
func printStages(w io.Writer, delta metrics, ops float64, selfPerOp map[string]float64) {
	fmt.Fprintf(w, "%-14s %16s   %-34s\n", "rsgend stage", "untraced ms/op", "traced layers, self ms/op")
	for _, s := range stages {
		v := 1e3 * ratio(delta.sumSeries("rsgend_stage_duration_seconds_sum", `stage="`+s+`"`), ops)
		if v == 0 {
			continue
		}
		var parts []string
		for _, l := range stageLayers[s] {
			if v, ok := selfPerOp[l]; ok {
				parts = append(parts, fmt.Sprintf("%s %.4f", l, v))
			}
		}
		fmt.Fprintf(w, "%-14s %16.4f   %s\n", s, v, strings.Join(parts, ", "))
	}
}

// replayPairs is how many untraced+traced replay pass pairs run.
const replayPairs = 3

// toReplay is o as the replay reads it.
func toReplay(o *op) replayio.Op {
	r := replayio.Op{I: o.i, Backends: o.backends, Factor: o.factor}
	for _, d := range o.dags {
		r.Dags = append(r.Dags, json.RawMessage(d))
	}
	if o.path == "/v1/advise" {
		r.SearchSeed = adviseSeed(o.keys[0])
	}
	return r
}

// tracedRun measures the per-layer numbers. It sends `sample` ops to the
// live rsgend one at a time for the traced end-to-end time, then has the
// replay binary send the same ops through the layers in process, and
// reports the per-layer self times, the residual no layer span covers, and
// the tracing overhead.
func tracedRun(wl wlSpec, w workload, c *client, next *atomic.Int64, models, runDir string, out io.Writer) (layers map[string]metric, selfPerOp map[string]float64, err error) {
	bin := filepath.Join(buildDir, "bin", "perfbench-replay")
	if _, err := os.Stat(bin); err != nil {
		return nil, nil, fmt.Errorf("traced replay binary missing (perfbench/run.sh builds it; see its output): %w", err)
	}
	k := wl.sample
	first := int(next.Add(int64(k)) - int64(k))
	ops := make([]*op, k)
	for j := range ops {
		ops[j] = w.prepare(first + j)
	}
	var e2e time.Duration
	for _, o := range ops {
		t0 := time.Now()
		if failed, err := w.run(c, o); failed > 0 {
			return nil, nil, fmt.Errorf("traced end-to-end pass: %v", err)
		}
		e2e += time.Since(t0)
	}
	e2eMs := e2e.Seconds() * 1e3 / float64(k)

	dir := filepath.Join(runDir, "replay")
	in := replayio.Input{Workload: wl.name, Models: models, Dir: dir, Pairs: replayPairs}
	if wl.name == "lifecycle" || wl.name == "advise" {
		in.Platform = json.RawMessage(platformBody)
	}
	if a, ok := w.(*advise); ok {
		for range adviseHeld {
			in.Hold = append(in.Hold, a.pool[advisePool])
		}
	}
	// Warm-up ops precede the sample in the corpus: for spec-hot a whole
	// corpus cycle, so the mirrored cache holds what rsgend's held.
	warm := 4
	if h, ok := w.(*specHot); ok {
		warm = len(h.reqs)
	}
	for j := first - min(warm, first); j < first; j++ {
		in.Warm = append(in.Warm, toReplay(w.prepare(j)))
	}
	for _, o := range ops {
		in.Ops = append(in.Ops, toReplay(o))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	inPath := filepath.Join(runDir, "replay-ops.json")
	b, err := json.Marshal(in)
	if err == nil {
		err = os.WriteFile(inPath, b, 0o644)
	}
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(bin, "-in", inPath)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("traced replay: %w", err)
	}
	var ro replayio.Output
	if err := json.Unmarshal(raw, &ro); err != nil {
		return nil, nil, fmt.Errorf("traced replay answer: %w", err)
	}
	traced := float64(replayPairs * k) // ops replayed with tracing on

	layers, selfPerOp = map[string]metric{}, map[string]float64{}
	var attributed time.Duration
	fmt.Fprintf(out, "%-26s %8s %12s %12s %14s\n", "layer (traced replay)", "count", "total ms", "self ms", "self us/call")
	for _, st := range ro.Layers {
		total, self := time.Duration(st.TotalNs), time.Duration(st.SelfNs)
		fmt.Fprintf(out, "%-26s %8d %12.3f %12.3f %14.2f\n", st.Name, st.Count,
			total.Seconds()*1e3, self.Seconds()*1e3, self.Seconds()*1e6/float64(st.Count))
		if st.Name == "op" || st.Name == "probe" {
			continue
		}
		m, ok := spanMetrics[st.Name]
		if !ok {
			return nil, nil, fmt.Errorf("span %q has no metric", st.Name)
		}
		scale := 1e6
		if m.unit == "ms" {
			scale = 1e3
		}
		layers[m.name] = metric{self.Seconds() * scale / float64(st.Count), m.unit}
		if st.Group == "op" {
			attributed += self
			selfPerOp[st.Name] = self.Seconds() * 1e3 / traced
		}
		if st.Name == "moga.search" {
			layers["moga.evals_per_s"] = metric{float64(ro.Evals) / total.Seconds(), "1/s"}
			layers["moga.evals_per_search"] = metric{ratio(float64(ro.Evals), float64(st.Count)), "count"}
		}
	}
	for h, c := range ro.Sched {
		name := "sched.modeled_over_measured." + h
		if _, ok := spanMetrics["sched.schedule."+h]; !ok {
			return nil, nil, fmt.Errorf("heuristic %q has no metric", h)
		}
		layers[name] = metric{ratio(c[0], c[1]), "ratio"}
	}
	attrMs := attributed.Seconds() * 1e3 / traced
	layers["trace.e2e_ms"] = metric{e2eMs, "ms"}
	layers["service.unattributed_ms"] = metric{e2eMs - attrMs, "ms"}
	layers["trace.overhead_ratio"] = metric{ratio(median(ro.Traced), median(ro.Untraced)), "ratio"}
	fmt.Fprintf(out, "per op over %d ops: layer self %.4f ms + unattributed %.4f ms = end-to-end %.4f ms; tracing overhead %.3fx\n",
		k, attrMs, e2eMs-attrMs, e2eMs, layers["trace.overhead_ratio"].Value)
	return layers, selfPerOp, nil
}
