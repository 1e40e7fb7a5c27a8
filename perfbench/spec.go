package main

import (
	"encoding/json"
)

// metricDef describes one metric the benchmark reports. End-to-end
// metrics carry the regression bound (a share of the parent's median);
// per-layer metrics carry, for reading, the end-to-end metric and
// workload they are expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// workloadDef names one workload and why the benchmark runs it.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runCtx) error
}

const (
	runSeconds = 12
	// benchScript is the script BENCHMARK.json's command runs.
	benchScript = "perfbench/run.sh"
)

func workloads() []workloadDef {
	return []workloadDef{
		{Name: "adhoc", run: runAdhoc,
			Why: "the 62 suite queries once each, exact then approximate, no reusable samples: parse, optimizer, samplers and executor do all the work"},
		{Name: "dashboard", run: func(c *runCtx) error { return runDashboard(c, false) },
			Why: "6 panels refreshed by nproc clients from warm plan and sample caches: concurrency, pool, admission and GC set the tail"},
		{Name: "dashboard-ingest", run: func(c *runCtx) error { return runDashboard(c, true) },
			Why: "the dashboard plus quiesced inserts that strand every cached plan and sample: cache population and invalidation cost shows"},
	}
}

// endToEnd lists the metrics every workload reports with tracing off.
// On a shared two-core virtual machine wall-clock metrics drift by 5-20%
// between runs with the host's load, and CPU time per query, the
// benchmark's form of the paper's machine-hours, by 5-8%; their bounds
// leave room for that. error_rate is carried by the result's
// attempted/failed counts rather than as a metric, because it is 0 on a
// healthy run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "exact_qps", Unit: "queries/s", Better: "higher", Bound: 0.25},
	{Name: "exact_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "exact_cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.2},
	{Name: "approx_qps", Unit: "queries/s", Better: "higher", Bound: 0.25},
	{Name: "approx_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "approx_latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "approx_cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.2},
	{Name: "ci95_coverage", Unit: "fraction", Better: "higher", Bound: 0.05},
	{Name: "group_recall", Unit: "fraction", Better: "higher", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics every workload reports with tracing on.
var perLayer = []metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower", Moves: "approx_latency_p50_ms on adhoc"},
	{Name: "catalog.bind_us", Unit: "us", Better: "lower", Moves: "approx_latency_p50_ms on adhoc"},
	{Name: "opt.normalize_us", Unit: "us", Better: "lower", Moves: "approx_latency_p50_ms on adhoc"},
	{Name: "core.asalqa_us", Unit: "us", Better: "lower", Moves: "approx_latency_p50_ms on adhoc"},
	{Name: "accuracy.analyze_us", Unit: "us", Better: "lower", Moves: "approx_latency_p50_ms on adhoc"},
	{Name: "opt.physical_us", Unit: "us", Better: "lower", Moves: "approx_latency_p50_ms on adhoc"},
	{Name: "pool.admission_wait_us", Unit: "us", Better: "lower", Moves: "approx_latency_tail_ms on dashboard; near 0 on adhoc"},
	{Name: "exec.exact_run_ms", Unit: "ms", Better: "lower", Moves: "exact_qps on adhoc"},
	{Name: "exec.approx_run_ms", Unit: "ms", Better: "lower", Moves: "approx_qps on adhoc"},
	{Name: "exec.ns_per_input_row", Unit: "ns", Better: "lower", Moves: "approx_qps on adhoc"},
	{Name: "exec.peak_inflight_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb on every workload"},
	{Name: "quickr.overhead_us", Unit: "us", Better: "lower", Moves: "approx_latency_p50_ms on dashboard"},
	{Name: "quickr.plancache_hit_rate", Unit: "fraction", Better: "higher", Moves: "approx_latency_p50_ms on dashboard (0 on adhoc by design)"},
	{Name: "exec.samplecache_hit_rate", Unit: "fraction", Better: "higher", Moves: "approx_qps on dashboard and dashboard-ingest (0 on adhoc: cache off)"},
	{Name: "pool.task_wait_us", Unit: "us", Better: "lower", Moves: "approx_latency_tail_ms on dashboard and dashboard-ingest"},
	{Name: "pool.stolen_frac", Unit: "fraction", Better: "higher", Moves: "approx_latency_tail_ms on dashboard and dashboard-ingest"},
	{Name: "table.insert_us_per_row", Unit: "us", Better: "lower", Moves: "approx_qps and approx_latency_tail_ms on dashboard-ingest"},
	{Name: "sampler.uniform_ns_per_row", Unit: "ns", Better: "lower", Moves: "approx_latency_tail_ms and approx_qps on adhoc, not dashboard"},
	{Name: "sampler.universe_ns_per_row", Unit: "ns", Better: "lower", Moves: "approx_latency_tail_ms and approx_qps on adhoc, not dashboard"},
	{Name: "sampler.distinct_ns_per_row", Unit: "ns", Better: "lower", Moves: "approx_latency_tail_ms and approx_qps on adhoc, not dashboard"},
	{Name: "sampler.distinct_allocs_per_row", Unit: "allocs", Better: "lower", Moves: "approx_latency_tail_ms and approx_qps on adhoc, not dashboard"},
	{Name: "sampler.pass_rate_ratio", Unit: "ratio", Better: "higher", Moves: "ci95_coverage on adhoc (1 is exact)"},
	{Name: "data.generate_s", Unit: "s", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "stats.collect_s", Unit: "s", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "quickr.warmup_s", Unit: "s", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "cluster.sim_runtime_gain", Unit: "ratio", Better: "higher", Moves: "wall time only through ASALQA's plan choice"},
	{Name: "cluster.sim_machine_hours_gain", Unit: "ratio", Better: "higher", Moves: "wall time only through ASALQA's plan choice"},
	{Name: "cluster.sim_vs_measured_spearman", Unit: "rho", Better: "higher", Moves: "nothing: calibration of the simulator against measured gains"},
	{Name: "runtime.alloc_mb_per_query", Unit: "MB", Better: "lower", Moves: "latencies on every workload"},
	{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: "lower", Moves: "latencies on every workload"},
	{Name: "runtime.gc_pause_p99_us", Unit: "us", Better: "lower", Moves: "approx_latency_tail_ms on every workload"},
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestE2E      `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

// manifestJSON renders BENCHMARK.json from the definitions above, so the
// committed file and the program cannot drift apart (a test compares
// them).
func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", benchScript},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
