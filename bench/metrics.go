package main

import (
	"encoding/json"
	"strings"
)

// metricDef is one named metric of the benchmark. BENCHMARK.json is
// generated from these tables (-manifest), so the names printed, the names
// checked and the names in the manifest cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median a change may lose
	on     string  // per-layer only: the workloads that report it; elsewhere it reads 0
}

// endToEnd are the metrics with bounds; every workload reports all of them
// from an untraced run. Each bound is at least twice the widest quartile
// distance measured for its metric on any workload in any of the series in
// README.md: that was 10.4 % for ops_s (in a half-hour in which the host
// slowed even the fastest windows of some runs; 0.2-4 % otherwise) and
// 5.5 % for rss_mb. setup_s, one wall-clock interval of a second or two
// with no windows inside to choose from, spread by up to 26 % and has the
// 0.25 that the benchmark contract caps every bound at.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// Which workloads report a per-layer metric.
const (
	onAll     = "wire_read durable_write batch_contended stm_tree"
	onStore   = "wire_read durable_write batch_contended"
	onWire    = "wire_read durable_write"
	onDurable = "durable_write"
	onSched   = "batch_contended"
	onTree    = "stm_tree"
)

// perLayer are single-layer metrics, reported by a traced run; the part of
// the name before the dot is the package it measures.
var perLayer = []metricDef{
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower", on: onAll},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower", on: onAll},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower", on: onAll},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", on: onAll},
	{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower", on: onAll},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower", on: onAll},
	{Name: "proc.trace_overhead_frac", Unit: "ratio", Better: "lower", on: onAll},
	{Name: "host.nproc", Unit: "count", Better: "higher", on: onAll},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher", on: onAll},
	{Name: "host.fsync_p50_us", Unit: "us", Better: "lower", on: onAll},
	{Name: "loadgen.fail_frac", Unit: "ratio", Better: "lower", on: onAll},
	{Name: "loadgen.ops_s_mean", Unit: "1/s", Better: "higher", on: onAll},
	{Name: "loadgen.ops_s_quiet", Unit: "1/s", Better: "higher", on: onAll},
	{Name: "loadgen.late_p90_us", Unit: "us", Better: "lower", on: onAll},
	{Name: "loadgen.achieved_rate_frac", Unit: "ratio", Better: "higher", on: onAll},
	{Name: "loadgen.paced_p50_us", Unit: "us", Better: "lower", on: onAll},
	{Name: "loadgen.paced_p90_us", Unit: "us", Better: "lower", on: onAll},
	{Name: "loadgen.paced_p99_us", Unit: "us", Better: "lower", on: onAll},
	{Name: "tkvwire.rtt_p50_us", Unit: "us", Better: "lower", on: onWire},
	{Name: "tkvwire.self_us_per_op", Unit: "us", Better: "lower", on: onWire},
	{Name: "tkvwire.codec_ns_per_op", Unit: "ns", Better: "lower", on: onWire},
	{Name: "tkvwire.bytes_per_op", Unit: "B", Better: "lower", on: onWire},
	{Name: "tkvwire.err_frames", Unit: "count", Better: "lower", on: onWire},
	{Name: "tkv.get_ns", Unit: "ns", Better: "lower", on: onStore},
	{Name: "tkv.put_ns", Unit: "ns", Better: "lower", on: onStore},
	{Name: "tkv.add_ns", Unit: "ns", Better: "lower", on: onStore},
	{Name: "tkv.batch_us", Unit: "us", Better: "lower", on: onStore},
	{Name: "tkv.mget_us", Unit: "us", Better: "lower", on: onStore},
	{Name: "tkv.self_ns_per_op", Unit: "ns", Better: "lower", on: onStore},
	{Name: "tkv.abort_ratio", Unit: "ratio", Better: "lower", on: onStore},
	{Name: "tkv.ro_fallbacks", Unit: "count", Better: "lower", on: onStore},
	{Name: "tkv.serializations", Unit: "count", Better: "lower", on: onStore},
	{Name: "keylock.lock_ns", Unit: "ns", Better: "lower", on: onStore},
	{Name: "keylock.waits_shared", Unit: "count", Better: "lower", on: onStore},
	{Name: "keylock.waits_excl", Unit: "count", Better: "lower", on: onStore},
	{Name: "keylock.wait_frac", Unit: "ratio", Better: "lower", on: onStore},
	{Name: "stm.ro_tx_ns", Unit: "ns", Better: "lower", on: onAll},
	{Name: "stm.update_tx_ns", Unit: "ns", Better: "lower", on: onAll},
	{Name: "stm.abort_ratio", Unit: "ratio", Better: "lower", on: onTree},
	{Name: "stm.retries_per_commit", Unit: "ratio", Better: "lower", on: onTree},
	{Name: "stmds.rbtree_get_ns", Unit: "ns", Better: "lower", on: onTree},
	{Name: "stmds.rbtree_update_ns", Unit: "ns", Better: "lower", on: onTree},
	{Name: "stmds.hashmap_get_ns", Unit: "ns", Better: "lower", on: onStore},
	{Name: "stmds.hashmap_put_ns", Unit: "ns", Better: "lower", on: onStore},
	{Name: "sched.serialized_frac", Unit: "ratio", Better: "lower", on: onStore},
	{Name: "sched.hook_ns_per_tx", Unit: "ns", Better: "lower", on: onSched},
	{Name: "tkvlog.append_ns", Unit: "ns", Better: "lower", on: onDurable},
	{Name: "tkvlog.decode_ns", Unit: "ns", Better: "lower", on: onDurable},
	{Name: "tkvlog.bytes_per_rec", Unit: "B", Better: "lower", on: onDurable},
	{Name: "tkvwal.append_wait_p50_us", Unit: "us", Better: "lower", on: onDurable},
	{Name: "tkvwal.group_mean", Unit: "count", Better: "higher", on: onDurable},
	{Name: "tkvwal.appends", Unit: "count", Better: "higher", on: onDurable},
	{Name: "tkvwal.fsyncs", Unit: "count", Better: "lower", on: onDurable},
	{Name: "tkvwal.bytes_per_user_byte", Unit: "ratio", Better: "lower", on: onDurable},
	{Name: "tkvwal.pending_peak_bytes", Unit: "B", Better: "lower", on: onDurable},
	{Name: "tkvwal.checkpoint_ms", Unit: "ms", Better: "lower", on: onDurable},
	{Name: "tkvwal.recover_s", Unit: "s", Better: "lower", on: onDurable},
	{Name: "tkvwal.recover_us_per_rec", Unit: "us", Better: "lower", on: onDurable},
	{Name: "device.writes", Unit: "count", Better: "lower", on: onDurable},
	{Name: "device.syncs", Unit: "count", Better: "lower", on: onDurable},
	{Name: "device.bytes_written", Unit: "B", Better: "lower", on: onDurable},
	{Name: "device.write_bytes_mean", Unit: "B", Better: "higher", on: onDurable},
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// -seconds, and this program's default.
const runSeconds = 20

// manifest renders BENCHMARK.json.
func manifest() string {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, workloadDef{s.name, s.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	enc.Encode(m)
	return b.String()
}
