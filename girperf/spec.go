package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's contract: workloads, metric names, units and regression
// bounds. BENCHMARK.json at the repository root is generated from these
// tables (girperf -write-spec), and a test pins the two together.

// runSeconds is how long one run measures.
const runSeconds = 10

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a caller of the library sees. Every workload
// reports every one: every timed section ends with a write probe, so
// write latency always exists. The bounds are as tight as this
// benchmark's run-to-run spread allows on a shared 2-vCPU VM (see
// RATIONALE.md); only the heap is steady enough for a tighter one.
var endToEnd = []metricDef{
	{"read_qps", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_p99_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"write_p99_us", "us", "lower", 0.25},
	{"heap_inuse_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced run's metrics, grouped by the layer whose
// public entry points the benchmark times. RATIONALE.md says which
// end-to-end metric each should move, and on which workload.
var perLayer = []metricDef{
	{"engine.call_us_p50", "us", "lower", 0},
	{"engine.hit_share", "ratio", "higher", 0},
	{"engine.partial_share", "ratio", "lower", 0},
	{"engine.fills_per_read", "count", "lower", 0},
	{"engine.dedup_share", "ratio", "higher", 0},
	{"engine.fused_query_share", "ratio", "higher", 0},
	{"engine.shared_reads_per_query", "count", "higher", 0},
	{"engine.fenced_per_read", "count", "lower", 0},
	{"engine.allocs_per_read", "count", "lower", 0},
	{"engine.bytes_per_read", "B", "lower", 0},
	{"cache.lookup_us_p50", "us", "lower", 0},
	{"cache.lookup_us_p99", "us", "lower", 0},
	{"cache.put_us_p50", "us", "lower", 0},
	{"cache.entries", "count", "higher", 0},
	{"topk.brs_us_p50", "us", "lower", 0},
	{"topk.brs_us_p99", "us", "lower", 0},
	{"topk.page_reads_per_query", "count", "lower", 0},
	{"gir.compute_us_p50", "us", "lower", 0},
	{"gir.phase2_us_p50", "us", "lower", 0},
	{"gir.phase2_us_p99", "us", "lower", 0},
	{"gir.page_reads_per_fill", "count", "lower", 0},
	{"gir.candidates_per_fill", "count", "lower", 0},
	{"gir.constraints_per_fill", "count", "lower", 0},
	{"geom.reduce_us_p50", "us", "lower", 0},
	{"geom.lps_per_fill", "count", "lower", 0},
	{"maintain.apply_us_p50", "us", "lower", 0},
	{"maintain.predicates_per_write", "count", "lower", 0},
	{"maintain.repaired_share", "ratio", "higher", 0},
	{"maintain.evicted_per_write", "count", "lower", 0},
	{"pager.presync_us_p50", "us", "lower", 0},
	{"pager.sync_apply_us_p50", "us", "lower", 0},
	{"pager.wal_bytes_per_write", "B", "lower", 0},
	{"rtree.page_writes_per_write", "count", "lower", 0},
	{"replay.miss_span_share", "ratio", "higher", 0},
	{"replay.op_self_share", "ratio", "lower", 0},
	{"trace.overhead_p50_us", "us", "lower", 0},
	{"trace.overhead_qps_share", "ratio", "lower", 0},
	{"trace.spans", "count", "higher", 0},
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type specFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	f := specFile{
		Command:    []string{"bash", "girperf/run.sh"},
		Paths:      []string{"girperf"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, specWorkload{w.name, w.why})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, specLayer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(f); err != nil {
		panic(err) // the tables above are static; encoding cannot fail
	}
	return buf.Bytes()
}
