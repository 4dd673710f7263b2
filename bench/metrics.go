package main

// metricSpec is one metric as BENCHMARK.json names it. The tables below are
// the benchmark's definition; TestBenchmarkJSON keeps BENCHMARK.json equal
// to them.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a client of lattold sees, reported by the
// untraced run. The timings are relative to the reference loop measured in
// the same window (ref.go): throughput over the reference's throughput,
// latency percentiles over the reference's typical latency, and setup_s
// over a reference set-up paired with each set-up (refSetupBase). Each bound
// is the share of the parent's median by which the metric may worsen before
// a change counts as a regression: for throughput and heap at least three
// times the largest spread of ten runs per workload on the bench host, for
// the latencies, whose spread reached 11%, the widest bound short of
// setup_s's (bench/README.md).
var endToEnd = []metricSpec{
	{"throughput_rel", "ratio", "higher", 0.20},
	{"latency_p50_rel", "ratio", "lower", 0.24},
	{"latency_p99_rel", "ratio", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = []metricSpec{
	{"client.self_us_p50", "us", "lower", 0},
	{"transport.self_us_p50", "us", "lower", 0},
	{"serve.http_us_p50", "us", "lower", 0},
	{"serve.http_us_p99", "us", "lower", 0},
	{"serve.wire_us", "us", "lower", 0},
	{"serve.cache.hit_ratio", "ratio", "higher", 0},
	{"serve.cache.coalesced_ratio", "ratio", "higher", 0},
	{"serve.cache.evictions_per_kreq", "1/kreq", "lower", 0},
	{"serve.pool.queue_wait_us_mean", "us", "lower", 0},
	{"serve.pool.solve_us_mean", "us", "lower", 0},
	{"serve.pool.busy_ratio", "ratio", "lower", 0},
	{"serve.pool.solves_per_req", "1/req", "lower", 0},
	{"serve.shed_per_kreq", "1/kreq", "lower", 0},
	{"serve.eval.solve_hit_us", "us", "lower", 0},
	{"serve.eval.solve_miss_us", "us", "lower", 0},
	{"serve.eval.tolerance_us", "us", "lower", 0},
	{"serve.eval.surrogate_us", "us", "lower", 0},
	{"serve.eval.plan_us", "us", "lower", 0},
	{"serve.eval.batch_us_per_item", "us", "lower", 0},
	{"serve.eval.sweep_us_per_point", "us", "lower", 0},
	{"serve.key_ns", "ns", "lower", 0},
	{"surrogate.hit_ratio", "ratio", "higher", 0},
	{"surrogate.refines_per_kreq", "1/kreq", "lower", 0},
	{"surrogate.lookup_ns", "ns", "lower", 0},
	{"mms.build_us", "us", "lower", 0},
	{"mva.solve_us", "us", "lower", 0},
	{"mva.batch_us_per_point", "us", "lower", 0},
	{"mva.iters_per_solve", "count", "lower", 0},
	{"tolerance.compute_us", "us", "lower", 0},
	{"inverse.plan_us", "us", "lower", 0},
	{"inverse.probes_per_plan", "count", "lower", 0},
	{"cluster.forward_ratio", "ratio", "lower", 0},
	{"cluster.fallback_ratio", "ratio", "lower", 0},
	{"cluster.forward_us_p50", "us", "lower", 0},
	{"cluster.forward_self_us_p50", "us", "lower", 0},
	{"cluster.ring_owner_ns", "ns", "lower", 0},
	{"process.cpu_us_per_req", "us", "lower", 0},
	{"process.allocs_per_req", "count", "lower", 0},
	{"process.alloc_bytes_per_req", "bytes", "lower", 0},
	{"process.gc_per_kreq", "1/kreq", "lower", 0},
	{"loadgen.requests", "count", "higher", 0},
	{"loadgen.throughput_rps", "req/s", "higher", 0},
	{"loadgen.latency_p50_us", "us", "lower", 0},
	{"loadgen.latency_p99_us", "us", "lower", 0},
	{"loadgen.latency_p999_us", "us", "lower", 0},
	{"loadgen.ref_throughput_rps", "req/s", "higher", 0},
	{"loadgen.ref_latency_us", "us", "lower", 0},
	{"loadgen.little_ratio", "ratio", "higher", 0},
	{"loadgen.trace_overhead_ratio", "ratio", "lower", 0},
}

// extras are printed in the listing and kept in the result record but left
// out of the one-line JSON result: they restate or explain its own fields.
var extras = []metricSpec{
	{"loadgen.fail_ratio", "ratio", "lower", 0},
	{"loadgen.setup_wall_s", "s", "lower", 0},
	{"loadgen.ref_setup_s", "s", "lower", 0},
	{"loadgen.checked", "count", "higher", 0},
	{"serve.eval.request_us", "us", "lower", 0},
}
