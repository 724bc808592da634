package main

// metricSpec names one reported metric. The two catalogues below are the
// benchmark's output contract: an untraced run prints every endToEnd
// metric, a traced run every perLayer metric, and BENCHMARK.json at the
// repository root lists the same names, units and directions (the smoke
// test holds the two in step).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd metrics are defined on every workload; README.md gives what the
// operation is on each one.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},              // median world build in set-up
	{"op_s", "s", "lower"},                 // median wall seconds per operation
	{"device_days_per_s", "1/s", "higher"}, // simulated device-days per wall second
	{"peak_mem_mb", "MB", "lower"},         // median peak memory held from the OS per operation
	{"alloc_mb", "MB", "lower"},            // median Go heap allocated per operation
	{"cpu_s", "s", "lower"},                // median user+sys seconds per operation
}

// perLayer metrics come from the traced run. Each is a median over traced
// operations; a layer a workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"sim.build_s", "s", "lower"},
	{"sim.organic_s", "s", "lower"},
	{"sim.campaign_s", "s", "lower"},
	{"sim.step_day_s", "s", "lower"},
	{"sim.log_emit_s", "s", "lower"},
	{"sim.barrier_s", "s", "lower"},
	{"sim.checkpoint_s", "s", "lower"},
	{"sim.hook_s", "s", "lower"},
	{"sim.install_records", "count", "lower"},
	{"sim.day_ms_p50", "ms", "lower"},
	{"sim.day_ms_p90", "ms", "lower"},
	{"sim.speedup", "ratio", "higher"},
	{"sim.campaign_speedup", "ratio", "higher"},

	{"stream.write_s", "s", "lower"},
	{"stream.bytes", "bytes", "lower"},
	{"stream.events", "count", "lower"},
	{"stream.batch_coalescing", "ratio", "higher"},
	{"stream.checkpoint_write_s", "s", "lower"},
	{"stream.checkpoint_mb", "MB", "lower"},
	{"stream.scan_index_s", "s", "lower"},
	{"stream.replay_day_s", "s", "lower"},
	{"stream.seek_ms_p50", "ms", "lower"},
	{"stream.seek_ms_p90", "ms", "lower"},
	{"stream.segments", "count", "higher"},

	{"lockstep.ingest_ns_per_event", "ns", "lower"},
	{"lockstep.groups_s", "s", "lower"},
	{"lockstep.pairs_pruned", "count", "lower"},
	{"lockstep.buckets_retracted", "count", "lower"},

	{"monitor.milk_pass_s", "s", "lower"},
	{"monitor.offers", "count", "higher"},
	{"crawler.crawl_pass_s", "s", "lower"},

	{"core.build_s", "s", "lower"},
	{"core.honey_s", "s", "lower"},
	{"core.window_s", "s", "lower"},
	{"core.analysis_s", "s", "lower"},
	{"core.lockstep_s", "s", "lower"},

	{"sweep.cell_s_p50", "s", "lower"},
	{"sweep.cell_s_p90", "s", "lower"},
	{"sweep.parallel_efficiency", "ratio", "higher"},

	{"gc.cpu_s", "s", "lower"},
	{"gc.cycles", "count", "lower"},

	{"trace.overhead_s", "s", "lower"},

	{"self.bench_s", "s", "lower"},
	{"self.core_s", "s", "lower"},
	{"self.sim_s", "s", "lower"},
	{"self.hook_s", "s", "lower"},
	{"self.stream_s", "s", "lower"},
	{"self.lockstep_s", "s", "lower"},
	{"self.monitor_s", "s", "lower"},
	{"self.crawler_s", "s", "lower"},
	{"self.sweep_s", "s", "lower"},
}

// layers are the span-name prefixes self time is reported for (self.<layer>_s).
var layers = []string{"bench", "core", "sim", "hook", "stream", "lockstep", "monitor", "crawler", "sweep"}
