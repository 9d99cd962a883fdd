package main

// metricDef names one metric. The tables below are the benchmark's
// definition; BENCHMARK.json repeats them for the driver and bench_test.go
// checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before -compare says "worse". Per-layer metrics
	// have none.
	bound float64
	// moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workload (README has the full map).
	moves string
}

// endToEnd are the metrics a user of the pipeline sees, reported for every
// workload. ok_share is 1 − error_share: the contract wants metrics that
// are never 0, and a healthy run has no failed operation.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	{name: "report_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.20},
	{name: "alloc_gib", unit: "GiB", better: "lower", bound: 0.08},
	{name: "mallocs_m", unit: "1e6", better: "lower", bound: 0.08},
	{name: "ok_share", unit: "ratio", better: "higher", bound: 0.001},
}

// perLayer are the traced pass's numbers; layer = package under internal/.
// A metric reads 0 on a workload whose run never reaches that code (spill
// on an in-memory workload, the analyses on a single-scan one).
var perLayer = []metricDef{
	{name: "world.build_s", unit: "s", better: "lower", moves: "setup_s, peak_rss_mib on bigscan"},
	{name: "world.hosts_per_s", unit: "1/s", better: "higher", moves: "setup_s on bigscan"},
	{name: "world.fib_mib", unit: "MiB", better: "lower", moves: "peak_rss_mib on bigscan"},
	{name: "world.routed_ns_per_addr", unit: "ns", better: "lower", moves: "run_s on sparse (the routed short-circuit)"},
	{name: "scenario.build_s", unit: "s", better: "lower", moves: "setup_s on bigscan"},

	{name: "zmap.permute_ns_per_addr", unit: "ns", better: "lower", moves: "run_s on sparse; none on hitlist"},
	{name: "zmap.walk_ns_per_target", unit: "ns", better: "lower", moves: "run_s on sparse"},
	{name: "zmap.encode_ns_per_target", unit: "ns", better: "lower", moves: "run_s on matrix, hitlist"},
	{name: "zmap.sweep_targets", unit: "count", better: "lower", moves: "explains sweep_s"},
	{name: "zmap.sweep_probes", unit: "count", better: "lower", moves: "explains sweep_s"},
	{name: "zmap.replies", unit: "count", better: "higher", moves: "explains grab_s"},
	{name: "zmap.reply_share", unit: "ratio", better: "higher", moves: "explains sweep_s vs grab_s"},

	{name: "packet.make_syn_ns", unit: "ns", better: "lower", moves: "run_s on matrix"},
	{name: "packet.decode_ns", unit: "ns", better: "lower", moves: "run_s on matrix"},

	{name: "fabric.send_host_ns", unit: "ns", better: "lower", moves: "run_s on matrix, bigscan, hitlist; none on sparse"},
	{name: "fabric.send_empty_ns", unit: "ns", better: "lower", moves: "run_s on matrix, bigscan; none on sparse"},
	{name: "fabric.send_unrouted_ns", unit: "ns", better: "lower", moves: "none while sinks expose Routability"},
	{name: "fabric.send_calls", unit: "count", better: "lower", moves: "explains sweep_s"},
	{name: "fabric.send_sampled_ns", unit: "ns", better: "lower", moves: "run_s on matrix, bigscan, hitlist"},
	{name: "fabric.send_answered_share", unit: "ratio", better: "higher", moves: "ties send_*_ns to the real mix"},
	{name: "fabric.predial_ns_per_host", unit: "ns", better: "lower", moves: "run_s on bigscan, hitlist"},
	{name: "fabric.predial_connect_share", unit: "ratio", better: "higher", moves: "explains grab_s"},

	{name: "zgrab.grab_accept_http_ns", unit: "ns", better: "lower", moves: "run_s on bigscan, hitlist; none on sparse"},
	{name: "zgrab.grab_accept_https_ns", unit: "ns", better: "lower", moves: "run_s on matrix, hitlist"},
	{name: "zgrab.grab_accept_ssh_ns", unit: "ns", better: "lower", moves: "run_s on matrix, hitlist"},
	{name: "zgrab.grab_reject_ns", unit: "ns", better: "lower", moves: "run_s on bigscan, hitlist"},
	{name: "zgrab.allocs_per_grab", unit: "count", better: "lower", moves: "mallocs_m, alloc_gib on bigscan, hitlist"},

	{name: "results.add_ns_per_row", unit: "ns", better: "lower", moves: "run_s on matrix, hitlist"},
	{name: "results.seal_mem_s", unit: "s", better: "lower", moves: "run_s on matrix, hitlist"},
	{name: "results.spill_flush_s", unit: "s", better: "lower", moves: "run_s on bigscan only"},
	{name: "results.spill_merge_s", unit: "s", better: "lower", moves: "run_s on bigscan only"},
	{name: "results.spill_segments", unit: "count", better: "lower", moves: "peak_rss_mib on bigscan only"},
	{name: "results.spilled_mib", unit: "MiB", better: "lower", moves: "run_s on bigscan only"},
	{name: "results.merge_fanin", unit: "count", better: "lower", moves: "run_s on bigscan only"},
	{name: "results.write_json_mib_per_s", unit: "MiB/s", better: "higher", moves: "report_s everywhere"},
	{name: "results.read_json_mib_per_s", unit: "MiB/s", better: "higher", moves: "report_s everywhere"},
	{name: "results.ground_truth_ms", unit: "ms", better: "lower", moves: "report_s on matrix, hitlist"},

	{name: "analysis.classifier_ms", unit: "ms", better: "lower", moves: "report_s on matrix, hitlist"},
	{name: "analysis.coverage_ms", unit: "ms", better: "lower", moves: "report_s on matrix, hitlist"},
	{name: "analysis.breakdown_ms", unit: "ms", better: "lower", moves: "report_s on matrix"},
	{name: "analysis.exclusive_ms", unit: "ms", better: "lower", moves: "report_s on matrix, hitlist"},
	{name: "analysis.transient_ms", unit: "ms", better: "lower", moves: "report_s on matrix"},
	{name: "analysis.packetloss_ms", unit: "ms", better: "lower", moves: "report_s on matrix"},
	{name: "analysis.bursts_ms", unit: "ms", better: "lower", moves: "report_s on matrix"},
	{name: "analysis.multiorigin_ms", unit: "ms", better: "lower", moves: "report_s on matrix"},
	{name: "analysis.ssh_ms", unit: "ms", better: "lower", moves: "report_s on matrix"},
	{name: "report.all_s", unit: "s", better: "lower", moves: "report_s on matrix"},

	{name: "experiment.worldgen_s", unit: "s", better: "lower", moves: "setup_s"},
	{name: "experiment.sweep_s", unit: "s", better: "lower", moves: "run_s: the sweep stage's share"},
	{name: "experiment.grab_s", unit: "s", better: "lower", moves: "run_s: the grab stage's share"},
	{name: "experiment.seal_s", unit: "s", better: "lower", moves: "run_s: the seal stage's share"},
	{name: "experiment.scan_p50_ms", unit: "ms", better: "lower", moves: "run_s on matrix (per-scan fixed cost)"},
	{name: "experiment.scan_p85_ms", unit: "ms", better: "lower", moves: "run_s on matrix (per-scan fixed cost)"},
	{name: "experiment.rows_per_s", unit: "1/s", better: "higher", moves: "restates run_s"},
	{name: "experiment.targets_per_s", unit: "1/s", better: "higher", moves: "restates run_s"},
	{name: "experiment.pool_speedup", unit: "ratio", better: "higher", moves: "the multi-core curve on matrix; not gated"},
	{name: "experiment.pool_speedup_min", unit: "ratio", better: "higher", moves: "spread of pool_speedup"},
	{name: "experiment.pool_speedup_max", unit: "ratio", better: "higher", moves: "spread of pool_speedup"},
	{name: "experiment.shard_speedup", unit: "ratio", better: "higher", moves: "intra-scan sharding on sparse; not gated"},

	{name: "bench.layer_sum_ratio_sweep", unit: "ratio", better: "higher", moves: "layers x counts vs hooked sweep time"},
	{name: "bench.layer_sum_ratio_grab", unit: "ratio", better: "higher", moves: "layers x counts vs hooked grab time"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", moves: "validity of the traced numbers"},
}

// sample is one metric's value in a result: the median over its samples,
// with the extremes and the count beside it.
type sample struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

func newSample(unit string, xs []float64) sample {
	s := sample{Unit: unit, Value: median(xs), N: len(xs), Samples: xs}
	for i, x := range xs {
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	return s
}
