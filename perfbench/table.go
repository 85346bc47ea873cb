package main

// spec names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (pinned by a test).
type spec struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// Each workload reads them in its own terms (see README.md): an
// operation is an arrival on the fleet workloads and a streamed task on
// real-stream; op latency is the modeled session latency on the fleet
// workloads and the host task latency on real-stream.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"op_latency_p50_ms", "ms"},
	{"op_latency_tail_ms", "ms"},
}

// perLayer are the metrics a traced run reports. A layer the workload's
// calls never reach reads 0.
var perLayer = []spec{
	{"btapps.build_ms.alexnet-sparse", "ms"},
	{"btapps.build_ms.octree", "ms"},
	{"btapps.build_ms.vision", "ms"},
	{"btapps.cpu_share", "ratio"},
	{"fleet.place_ms_p50", "ms"},
	{"fleet.place_ms_tail", "ms"},
	{"fleet.cpu_self_share", "ratio"},
	{"fleet.admit_attempts", "count"},
	{"fleet.admit_yield", "ratio"},
	{"fleet.spills", "count"},
	{"runtime.session_run_ms_p50", "ms"},
	{"runtime.replans", "count"},
	{"runtime.replans_skipped", "count"},
	{"profiler.cpu_share", "ratio"},
	{"sched.solve_cpu_share", "ratio"},
	{"sched.autotune_cpu_share", "ratio"},
	{"schedcache.hits", "count"},
	{"schedcache.misses", "count"},
	{"schedcache.evictions", "count"},
	{"schedcache.hit_ratio", "ratio"},
	{"profiler.profile_ms.octree", "ms"},
	{"profiler.profile_ms.vision", "ms"},
	{"sched.optimize_ms.octree", "ms"},
	{"sched.optimize_ms.vision", "ms"},
	{"soc.cpu_share", "ratio"},
	{"pipeline.sim_cpu_share", "ratio"},
	{"pipeline.stage_ms_p50.octree.morton", "ms"},
	{"pipeline.stage_ms_p50.octree.sort", "ms"},
	{"pipeline.stage_ms_p50.octree.unique", "ms"},
	{"pipeline.stage_ms_p50.octree.radix-tree", "ms"},
	{"pipeline.stage_ms_p50.octree.edge-count", "ms"},
	{"pipeline.stage_ms_p50.octree.prefix-sum", "ms"},
	{"pipeline.stage_ms_p50.octree.build-octree", "ms"},
	{"pipeline.stage_ms_p50.vision.demosaic", "ms"},
	{"pipeline.stage_ms_p50.vision.denoise", "ms"},
	{"pipeline.stage_ms_p50.vision.sobel", "ms"},
	{"pipeline.stage_ms_p50.vision.histogram", "ms"},
	{"pipeline.stage_ms_p50.vision.equalize", "ms"},
	{"pipeline.stage_ms_p50.vision.downscale", "ms"},
	{"pipeline.queue_wait_ms.octree", "ms"},
	{"pipeline.queue_wait_ms.vision", "ms"},
	{"pipeline.queue_stall_ms.octree", "ms"},
	{"pipeline.queue_stall_ms.vision", "ms"},
	{"pipeline.pool_util.octree.little", "ratio"},
	{"pipeline.pool_util.octree.medium", "ratio"},
	{"pipeline.pool_util.octree.big", "ratio"},
	{"pipeline.pool_util.octree.gpu", "ratio"},
	{"pipeline.pool_util.vision.little", "ratio"},
	{"pipeline.pool_util.vision.medium", "ratio"},
	{"pipeline.pool_util.vision.big", "ratio"},
	{"pipeline.pool_util.vision.gpu", "ratio"},
	{"go.alloc_mb_per_arrival", "MB"},
	{"go.gc_cpu_share", "ratio"},
	{"go.alloc_kb_per_task", "kB"},
}
