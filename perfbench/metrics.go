package main

import "mcfi/internal/workload"

// metric is one entry of the benchmark's metric catalogue. BENCHMARK.json
// at the repository root lists the same names, units and directions;
// TestCatalogueMatchesBenchmarkJSON keeps the two in step.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed regression share
}

// endToEnd is what an untraced run (--trace 0) prints, for every workload.
// "op" is the workload's unit of work: one guest run (exec-steady), one
// unit built from source — libc, or a program to a loaded process
// (build-cold), one Dlopen+Dlsym (dlopen-storm) or one job (serve-mix).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MiB", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer is what a traced run (--trace 1) prints, for every workload; a
// layer the workload does not exercise reads 0. Names ending in _ms are a
// layer's self time per op, from the benchmark's spans around that layer's
// public calls.
var perLayer = append([]metric{
	// Each workload's headline numbers; each is nonzero only on its own
	// workload.
	{"error_rate", "ratio", "lower", 0},
	{"guest_minstr_per_s", "Minstr/s", "higher", 0},
	{"mcfi_slowdown", "x", "lower", 0},
	{"build_s", "s", "lower", 0},
	{"build_alloc_mb", "MiB", "lower", 0},
	{"code_bytes", "bytes", "lower", 0},
	{"update_p50_ms", "ms", "lower", 0},
	{"update_tail_ms", "ms", "lower", 0},
	{"job_p50_ms", "ms", "lower", 0},
	{"job_tail_ms", "ms", "lower", 0},
	{"jobs_per_s", "jobs/s", "higher", 0},
	{"op.tail_pct", "%", "higher", 0},
	{"op.samples", "count", "higher", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.late_max_ms", "ms", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.op_p50_ms", "ms", "lower", 0},
	{"build.unaccounted_ms", "ms", "lower", 0},

	// Build layers.
	{"minic.parse_ms", "ms", "lower", 0},
	{"sema.analyze_ms", "ms", "lower", 0},
	{"codegen.compile_ms", "ms", "lower", 0},
	{"codegen.instrument_ms", "ms", "lower", 0},
	{"toolchain.libc_ms", "ms", "lower", 0},
	{"linker.link_ms", "ms", "lower", 0},
	{"verifier.verify_ms", "ms", "lower", 0},
	{"cfg.generate_ms", "ms", "lower", 0},
	{"mrt.new_ms", "ms", "lower", 0},
	{"minic.alloc_mb", "MiB", "lower", 0},
	{"sema.alloc_mb", "MiB", "lower", 0},
	{"codegen.alloc_mb", "MiB", "lower", 0},
	{"linker.alloc_mb", "MiB", "lower", 0},
	{"verifier.alloc_mb", "MiB", "lower", 0},
	{"mrt.alloc_mb", "MiB", "lower", 0},
	{"rewrite.code_growth", "x", "lower", 0},
	{"cfg.eqcs", "count", "higher", 0},

	// Execution layers.
	{"vm.run_ms", "ms", "lower", 0},
	{"vm.icache_fills", "count", "lower", 0},
	{"vm.fused_checks_per_kinstr", "1/kinstr", "higher", 0},
	{"vm.verdict_hit_ratio", "ratio", "higher", 0},
	{"go.alloc_mb_per_run", "MiB", "lower", 0},
	{"go.gc_ms", "ms", "lower", 0},
	{"exec.first_run_ratio", "x", "lower", 0},

	// Update transactions.
	{"mrt.dlopen_ms", "ms", "lower", 0},
	{"mrt.dlsym_ms", "ms", "lower", 0},
	{"mrt.delta_ratio", "ratio", "higher", 0},
	{"tables.retries_per_update", "count", "lower", 0},

	// Serving.
	{"server.admission_ms", "ms", "lower", 0},
	{"cluster.queue_ms", "ms", "lower", 0},
	{"toolchain.compile_ms", "ms", "lower", 0},
	{"buildstore.store_ms", "ms", "lower", 0},
	{"buildstore.hit_ratio", "ratio", "higher", 0},
	{"buildstore.builds", "count", "lower", 0},
	{"server.refused_ratio", "ratio", "lower", 0},
}, programRows()...)

// programRows are exec-steady's per-program rows.
func programRows() []metric {
	var ms []metric
	for _, w := range workload.All() {
		ms = append(ms,
			metric{"exec." + w.Name + ".minstr_per_s", "Minstr/s", "higher", 0},
			metric{"exec." + w.Name + ".slowdown", "x", "lower", 0})
	}
	return ms
}

func unitOf(catalogue []metric, name string) (string, bool) {
	for _, m := range catalogue {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}
