package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric the benchmark reports. The end-to-end and
// per-layer tables below are the source of truth that BENCHMARK.json
// mirrors (TestBenchmarkJSONMatches keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// The algorithms of the analytics suite, in pass order.
var suite = []string{"bfs", "bellmanford", "cc", "kcore", "tc", "pagerank"}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (see README.md for what "op" is on each).
// max_rss_mb gets the same bound as the times: on the analytics workloads
// (~43 MB) its peak moves by up to 7% (quartile spread over ten seeds)
// with when the garbage collector runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics. Which end-to-end metric each one
// should move, and on which workload, is written down in README.md.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name: name, unit: unit, better: better}) }
	pct := func(name, unit string) {
		add(name+"_p50", unit, "lower")
		add(name+"_p90", unit, "lower")
	}
	// Set-up layers.
	add("gen.rmat_s", "s", "lower")
	add("store.create_s", "s", "lower")
	add("store.open_ms", "ms", "lower")
	add("server.recover_ms", "ms", "lower")
	add("cluster.start_ms", "ms", "lower")
	// Engine layers, per algorithm of the suite.
	for _, a := range suite {
		add("algos."+a+".ms_p50", "ms", "lower")
	}
	for _, a := range suite {
		add("psam."+a+".nvram_words", "count", "lower")
		add("psam."+a+".peak_dram_words", "count", "lower")
	}
	add("psam.nvram_writes", "count", "lower")
	add("psam.suite_nvram_mb", "MB", "lower")
	add("psam.nondeterministic_algos", "count", "lower")
	// Read path self times.
	pct("net.client_ms", "ms")
	pct("cluster.router_self_ms", "ms")
	pct("net.proxy_hop_ms", "ms")
	pct("server.miss_value.self_ms", "ms")
	pct("server.miss_slim.self_ms", "ms")
	pct("server.self_ms", "ms")
	pct("algos.run_ms", "ms")
	pct("server.hit_ms", "ms")
	pct("cluster.hit_ms", "ms")
	add("server.result_cache.hit_ratio", "ratio", "higher")
	add("cluster.router_cache.hit_ratio", "ratio", "higher")
	add("serve.repeat_share", "ratio", "higher")
	add("server.body_kb.value", "kB", "lower")
	add("server.body_kb.slim", "kB", "lower")
	add("server.admission.rejected", "count", "lower")
	add("cluster.read_failovers", "count", "lower")
	// Write path.
	pct("update_ms", "ms")
	pct("cluster.update_self_ms", "ms")
	pct("server.update_ms.primary", "ms")
	pct("server.update_ms.secondary", "ms")
	pct("updates.apply_ms", "ms")
	pct("wal.fsync_ms", "ms")
	add("wal.batches_per_fsync", "count", "higher")
	add("wal.bytes_per_batch", "B", "lower")
	add("delta.words_mean", "count", "lower")
	add("delta.base_bfs_ms_p50", "ms", "lower")
	add("delta.overlay_bfs_ms_p50", "ms", "lower")
	add("net.update_lag_ms_p90", "ms", "lower")
	// The run's own tail and the tracing overhead: the same workload's
	// end-to-end figures untraced and traced, from one invocation.
	add("op_ms_p90", "ms", "lower")
	add("untraced.op_ms_p50", "ms", "lower")
	add("traced.op_ms_p50", "ms", "lower")
	add("untraced.ops_per_s", "1/s", "higher")
	add("traced.ops_per_s", "1/s", "higher")
	add("trace.overhead_pct", "%", "lower")
	add("trace.requests", "count", "higher")
	add("trace.unbalanced_requests", "count", "lower")
	add("error_ratio", "ratio", "lower")
	return out
}

// value is one reported metric: its value and how many samples it was
// computed from (1 for a single measurement or a count).
type value struct {
	v float64
	n int
}

// report collects a run's metrics by name.
type report map[string]value

func (r report) set(name string, v float64, n int) { r[name] = value{v, n} }

// setPct records the p50 and p90 of s under name_p50 and name_p90.
func (r report) setPct(name string, s *samples) {
	v := s.sorted()
	r.set(name+"_p50", quantile(v, 0.5), len(v))
	r.set(name+"_p90", quantile(v, 0.9), len(v))
}

// metricJSON is one metric in the final result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the final line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// printTable writes one human-readable line per metric: name, value,
// unit, and sample count. A metric the run did not produce is an error.
func printTable(w io.Writer, defs []metricDef, r report) error {
	var missing []string
	for _, d := range defs {
		v, ok := r[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		fmt.Fprintf(w, "%-36s %14.4f %-6s n=%d\n", d.name, v.v, d.unit, v.n)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not produced: %v", missing)
	}
	return nil
}

// resultLine renders the contract's final JSON line for defs.
func resultLine(defs []metricDef, r report, attempted, failed int64, correct bool) ([]byte, error) {
	out := resultJSON{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v := r[d.name]
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricJSON{Value: v.v, Unit: d.unit}
	}
	return json.Marshal(out)
}
