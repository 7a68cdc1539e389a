package main

import "fmt"

// metricDef is one reported metric; BENCHMARK.json lists the same names
// and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports, all host time.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"item_ms.p50", "ms"},
	{"item_ms.p90", "ms"},
}

// perLayer are the metrics a -trace 1 run reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"runner.busy_s", "s"},
		{"runner.idle_frac", "frac"},
		{"runner.cache.hit_frac", "frac"},
		{"serve.store.hit_frac", "frac"},
		{"serve.polls_per_req", "count"},
		{"serve.submit_ms.p50", "ms"},
		{"serve.result_ms.p50", "ms"},
		{"serve.rejected", "count"},
		{"serve.jobs.failed", "count"},
	}
	for _, class := range serveClasses {
		defs = append(defs,
			metricDef{"serve." + class + "_ms.p50", "ms"},
			metricDef{"serve." + class + "_ms.p90", "ms"})
	}
	defs = append(defs,
		metricDef{"sim_mops_per_s", "Mops/s"},
		metricDef{"engine.ops", "count"},
		metricDef{"engine.sync_ops", "count"},
		metricDef{"engine.self_s", "s"},
		metricDef{"engine.self_ns_per_op", "ns"},
	)
	for _, f := range famNames[:famDrain] {
		defs = append(defs,
			metricDef{"core." + f + ".calls", "count"},
			metricDef{"core." + f + ".busy_s", "s"})
	}
	defs = append(defs,
		metricDef{"core.drain.busy_s", "s"},
		metricDef{"mesi.access.calls", "count"},
		metricDef{"mesi.access.busy_s", "s"},
		metricDef{"mesi.sync.calls", "count"},
		metricDef{"mesi.sync.busy_s", "s"},
		metricDef{"mesi.drain.busy_s", "s"},
		metricDef{"compiler.lower_s", "s"},
		metricDef{"apps.build_s", "s"},
		metricDef{"apps.verify_s", "s"},
		metricDef{"litmus.enumerate_s", "s"},
		metricDef{"litmus.explore_s", "s"},
		metricDef{"litmus.runs", "count"},
		metricDef{"litmus.schedules", "count"},
		metricDef{"litmus.dedup_cuts", "count"},
		metricDef{"litmus.states_seen", "count"},
		metricDef{"litmus.schedule_frac", "frac"},
		metricDef{"litmus.us_per_run", "us"},
		metricDef{"fuzzgen.gen_s", "s"},
		metricDef{"fuzzgen.check_s", "s"},
		metricDef{"fuzzgen.judge_s", "s"},
		metricDef{"fuzzgen.mutants", "count"},
		metricDef{"fuzzgen.detected_frac", "frac"},
		metricDef{"gc.alloc_mb", "MiB"},
		metricDef{"gc.allocs_per_item", "count"},
		metricDef{"gc.cycles", "count"},
		metricDef{"gc.cpu_frac", "frac"},
		metricDef{"sim.cycles", "cycles"},
	)
	for _, k := range stallKinds {
		defs = append(defs, metricDef{"sim.stall." + k + "_frac", "frac"})
	}
	for _, l := range []string{"l1", "l2", "l3"} {
		defs = append(defs, metricDef{"cache." + l + ".miss_frac", "frac"})
	}
	defs = append(defs,
		metricDef{"cache.l1.accesses", "count"},
		metricDef{"cache.evictions", "count"},
		metricDef{"meb.records", "count"},
		metricDef{"meb.overflow.events", "count"},
		metricDef{"ieb.insertions", "count"},
		metricDef{"ieb.fifo.evictions", "count"},
	)
	for _, c := range trafficClasses {
		defs = append(defs, metricDef{"noc.flits." + c, "flits"})
	}
	defs = append(defs, metricDef{"mem.pages", "count"})
	for _, b := range profBuckets {
		defs = append(defs, metricDef{fmt.Sprintf("prof.%s_frac", b), "frac"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "frac"})
}()

// stallKinds and trafficClasses are the paper's Figure 9 stall and
// Figure 10 traffic categories.
var (
	stallKinds     = []string{"inv", "wb", "lock", "barrier"}
	trafficClasses = []string{"linefill", "writeback", "invalidation", "memory"}
)
