package main

// metricDef declares one reported metric. The tables below must match
// BENCHMARK.json exactly; the contract test holds them together.
type metricDef struct {
	name, unit, better string
	// moves lists, as "metric@workload", the end-to-end numbers this
	// per-layer metric is expected to move: what a change to that layer
	// should show up in, and where it should not.
	moves []string
}

// endToEnd are the numbers a user of the system sees. Every workload reports
// all of them. The latency tail is not among them: on a shared two-CPU box
// its run-to-run spread is far wider than any bound worth holding a change
// to, so it is reported, unbounded, as bench.latency_p99_ms.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "throughput_ops_s", unit: "ops/s", better: "higher"},
	{name: "peak_heap_mb", unit: "MB", better: "lower"},
}

var (
	openLoads = []string{"serve_miss", "serve_hit_routed", "session_churn"}
	allLoads  = []string{"offline_solve", "serve_miss", "serve_hit_routed", "session_churn"}
	p50OnOpen = on("latency_p50_ms", openLoads...)
)

// on spells "metric@w" for each workload w.
func on(metric string, workloads ...string) []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = metric + "@" + w
	}
	return out
}

func join(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// perLayer are the traced run's numbers, one group per module of the repo
// ("bench" is the load generator itself, "http" Go's net/http, "runtime" the
// Go runtime). A metric of a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"bench.latency_p99_ms", "ms", "lower", nil},
	{"bench.lag_ms_p99", "ms", "lower", p50OnOpen},
	{"bench.outstanding_max", "count", "lower", p50OnOpen},
	{"bench.conn_wait_ms_p50", "ms", "lower", join(p50OnOpen, on("throughput_ops_s", openLoads...))},
	{"bench.conn_wait_ms_p99", "ms", "lower", on("throughput_ops_s", openLoads...)},
	{"bench.ttfb_ms_p50", "ms", "lower", on("latency_p50_ms", "serve_hit_routed", "session_churn")},
	{"bench.body_ms_p50", "ms", "lower", on("latency_p50_ms", "serve_hit_routed", "session_churn")},
	{"http.transport_ms_mean", "ms", "lower", p50OnOpen},

	{"serve.handler_solve_ms_mean", "ms", "lower", on("latency_p50_ms", "serve_miss", "serve_hit_routed")},
	{"serve.handler_solve_ms_p99", "ms", "lower", on("throughput_ops_s", "serve_miss", "serve_hit_routed")},
	{"serve.handler_mutate_ms_mean", "ms", "lower", on("latency_p50_ms", "session_churn")},
	{"serve.handler_session_solve_ms_mean", "ms", "lower", on("latency_p50_ms", "session_churn")},
	{"serve.handler_upload_ms_mean", "ms", "lower", on("throughput_ops_s", "session_churn")},
	{"serve.handler_evict_ms_mean", "ms", "lower", on("throughput_ops_s", "session_churn")},
	{"serve.request_ms_mean", "ms", "lower", on("latency_p50_ms", "serve_miss")},
	{"serve.session_request_ms_mean", "ms", "lower", on("latency_p50_ms", "session_churn")},
	{"serve.codec_ms_mean", "ms", "lower", join(on("latency_p50_ms", "serve_hit_routed"), on("throughput_ops_s", "serve_hit_routed"))},
	{"serve.kernel_ms_mean", "ms", "lower", on("throughput_ops_s", "serve_miss", "session_churn")},
	{"serve.flush_ms_mean", "ms", "lower", on("throughput_ops_s", "serve_miss")},
	{"serve.queue_ms_mean", "ms", "lower", on("latency_p50_ms", "serve_miss")},
	{"serve.batch_mean", "count", "higher", on("throughput_ops_s", "serve_miss")},
	{"serve.coalesced_ratio", "ratio", "higher", on("throughput_ops_s", "serve_miss")},
	{"serve.solves_per_request", "ratio", "lower", on("throughput_ops_s", "serve_miss")},
	{"serve.rejected", "count", "lower", on("throughput_ops_s", "serve_miss")},
	{"serve.cache_hit_ratio", "ratio", "higher", on("latency_p50_ms", "serve_hit_routed")},
	{"serve.warm_ratio", "ratio", "higher", on("latency_p50_ms", "session_churn")},
	{"serve.register_ms_mean", "ms", "lower", on("throughput_ops_s", "session_churn")},

	{"shard.handler_ms_mean", "ms", "lower", on("latency_p50_ms", "serve_hit_routed")},
	{"shard.upstream_ms_mean", "ms", "lower", on("latency_p50_ms", "serve_hit_routed")},
	{"shard.proxy_ms_mean", "ms", "lower", join(on("latency_p50_ms", "serve_hit_routed"), on("throughput_ops_s", "serve_hit_routed"))},
	{"shard.max_share", "ratio", "lower", on("throughput_ops_s", "serve_hit_routed")},
	{"shard.shed", "count", "lower", on("throughput_ops_s", "serve_hit_routed")},
	{"shard.errors", "count", "lower", on("throughput_ops_s", "serve_hit_routed")},

	{"onesided.decode_ms_p50", "ms", "lower", on("throughput_ops_s", "session_churn")},
	{"onesided.fingerprint_ms_p50", "ms", "lower", on("throughput_ops_s", "session_churn")},
	{"popmatch.popular_ms_p50", "ms", "lower", join(on("throughput_ops_s", "offline_solve"), on("latency_p50_ms", "offline_solve"))},
	{"popmatch.maxcard_ms_p50", "ms", "lower", on("throughput_ops_s", "offline_solve")},
	{"stable.next_ms_p50", "ms", "lower", on("throughput_ops_s", "offline_solve")},

	{"core.validate_ms_mean", "ms", "lower", on("throughput_ops_s", "offline_solve")},
	{"core.build_reduced_ms_mean", "ms", "lower", on("throughput_ops_s", "offline_solve")},
	{"core.peel_ms_mean", "ms", "lower", on("throughput_ops_s", "offline_solve")},
	{"core.promote_ms_mean", "ms", "lower", on("throughput_ops_s", "offline_solve")},
	{"core.other_ms_mean", "ms", "lower", on("throughput_ops_s", "offline_solve")},
	{"core.splice_ms_mean", "ms", "lower", on("latency_p50_ms", "session_churn")},

	{"par.rounds_per_solve", "count", "lower", on("throughput_ops_s", "offline_solve")},
	{"par.work_per_solve", "count", "lower", on("throughput_ops_s", "offline_solve")},
	{"par.barrier_wait_share", "ratio", "lower", on("throughput_ops_s", "offline_solve")},
	{"par.parks_per_op", "count", "lower", on("throughput_ops_s", "offline_solve")},
	{"par.spin_yields_per_op", "count", "lower", on("throughput_ops_s", "offline_solve")},

	{"runtime.cpu_ms_per_op", "ms", "lower", on("throughput_ops_s", allLoads...)},
	{"runtime.allocs_per_op", "count", "lower", on("peak_heap_mb", allLoads...)},
	{"runtime.bytes_per_op", "B", "lower", on("peak_heap_mb", allLoads...)},
	{"runtime.gc_cycles", "count", "lower", on("throughput_ops_s", allLoads...)},
	{"runtime.gc_pause_ms", "ms", "lower", on("throughput_ops_s", allLoads...)},

	{"trace.overhead_p50", "ratio", "lower", nil},
	{"trace.explained_share", "ratio", "higher", nil},
}
