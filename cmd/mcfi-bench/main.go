// mcfi-bench regenerates the tables and figures of the MCFI paper's
// evaluation (§8) over the reproduction's workload suite.
//
// Usage:
//
//	mcfi-bench -exp all
//	mcfi-bench -exp fig5 -profile 32
//	mcfi-bench -exp table3 -scale 1.0
//	mcfi-bench -exp fig5 -engine blockjit -json BENCH_fig5.json
//	mcfi-bench -diff -threshold 30 old.json new.json
//
// Experiments: fig5, fig6, stm, space, table1, table2, table3, air,
// rop, cfggen, updates, sanity, all. With -json, per-experiment results (and
// per-workload runs for fig5/fig6) are also written as a
// machine-readable snapshot for perf-trajectory tracking. With -diff,
// no experiments run: the two snapshot files given as positional
// arguments are compared row-by-row and the process exits non-zero if
// any matched row's Minstr/s dropped by more than -threshold percent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mcfi/internal/buildstore"
	"mcfi/internal/experiments"
	"mcfi/internal/verifier"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

// records accumulates the -json snapshot across experiments (schema:
// experiments.BenchRecord, shared with the -diff reader).
var records []experiments.BenchRecord

// recordOverheadRows flattens fig5/fig6 rows into per-run records.
func recordOverheadRows(exp string, c experiments.Config, rows []experiments.OverheadRow) {
	for _, r := range rows {
		if r.Name == "average" {
			continue
		}
		records = append(records,
			experiments.BenchRecord{
				Experiment: exp, Benchmark: r.Name,
				Engine: c.Engine.String(), Profile: c.Profile.String(),
				Instrumented: false, WallSecs: r.BaselineSecs,
				Instret:      r.Baseline,
				MinstrPerSec: experiments.MinstrPerSec(r.Baseline, r.BaselineSecs),
			},
			experiments.BenchRecord{
				Experiment: exp, Benchmark: r.Name,
				Engine: c.Engine.String(), Profile: c.Profile.String(),
				Instrumented: true, WallSecs: r.MCFISecs,
				Instret:      r.MCFI,
				MinstrPerSec: experiments.MinstrPerSec(r.MCFI, r.MCFISecs),
			},
		)
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig5 fig6 stm space table1 table2 table3 air rop cfggen updates sanity all)")
	profile := flag.Int("profile", 64, "VISA profile: 32 or 64")
	work := flag.Int("work", 0, "override workload iteration count (0 = reference inputs)")
	scale := flag.Float64("scale", 0.25, "Table 3 synthetic-module scale factor")
	hz := flag.Int("hz", 50, "update-transaction frequency for fig6")
	updModules := flag.Int("upd-modules", 24, "updates experiment: modules in the dlopen storm")
	updCheckers := flag.Int("upd-checkers", 4, "updates experiment: concurrent check loops racing the storm")
	engine := vm.EngineBlockJIT
	flag.Var((*vm.EngineFlag)(&engine), "engine", vm.EngineUsage())
	jobs := flag.Int("jobs", 0, "worker-pool width for builds and workloads (0 = GOMAXPROCS)")
	storeDir := flag.String("store", "", "persistent build-store directory: reuse compiled artifacts across runs")
	jsonPath := flag.String("json", "", "write per-experiment results to this file as JSON")
	diffMode := flag.Bool("diff", false, "compare two -json snapshots: mcfi-bench -diff old.json new.json")
	threshold := flag.Float64("threshold", 25, "with -diff, fail if any Minstr/s drop exceeds this percent")
	flag.Parse()

	if *diffMode {
		os.Exit(runDiff(flag.Args(), *threshold))
	}

	c := experiments.Config{
		Profile:  visa.Profile64,
		Work:     *work,
		GenScale: *scale,
		Engine:   engine,
		Jobs:     *jobs,
	}
	if *profile == 32 {
		c.Profile = visa.Profile32
	}
	if *storeDir != "" {
		disk, err := buildstore.OpenDisk(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcfi-bench:", err)
			os.Exit(2)
		}
		c.Store = buildstore.NewTiered(buildstore.NewMem(0), disk)
		defer c.Store.Close()
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s (%s, %s engine) ====\n", name, c.Profile, engine)
		var before buildstore.Metrics
		if c.Store != nil {
			before = c.Store.Metrics()
		}
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		secs := time.Since(start).Seconds()
		rec := experiments.BenchRecord{
			Experiment: name, Engine: engine.String(),
			Profile: c.Profile.String(), Instrumented: true,
			WallSecs: secs,
		}
		if c.Store != nil {
			after := c.Store.Metrics()
			rec.StoreBuilds = after.Builds - before.Builds
			rec.StoreHits = map[string]int64{}
			for tier, n := range after.TierHits {
				if d := n - before.TierHits[tier]; d > 0 {
					rec.StoreHits[tier] = d
				}
			}
			fmt.Printf("[%s wall time: %.2fs; store: %d built, hits %v]\n\n",
				name, secs, rec.StoreBuilds, rec.StoreHits)
		} else {
			fmt.Printf("[%s wall time: %.2fs]\n\n", name, secs)
		}
		records = append(records, rec)
	}

	run("sanity", func() error { return sanity(c) })
	run("fig5", func() error { return fig5(c) })
	run("fig6", func() error { return fig6(c, *hz) })
	run("stm", func() error { return stm() })
	run("space", func() error { return space(c) })
	run("table1", func() error { return table1(c) })
	run("table2", func() error { return table2(c) })
	run("table3", func() error { return table3(c) })
	run("air", func() error { return airTable(c) })
	run("rop", func() error { return ropTable(c) })
	run("cfggen", func() error { return cfggen(c) })
	run("updates", func() error { return updates(c, *updModules, *updCheckers) })

	if *jsonPath != "" {
		out, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcfi-bench: marshal results:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mcfi-bench: write results:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d result records to %s\n", len(records), *jsonPath)
	}
}

// runDiff implements -diff: compare two snapshots and return the
// process exit code (0 = no regression past the threshold and no
// instret mismatch, 1 = either, 2 = usage/IO error). Instret is
// deterministic, so it is compared exactly whatever the threshold.
func runDiff(args []string, thresholdPct float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: mcfi-bench -diff [-threshold pct] old.json new.json")
		return 2
	}
	oldRecs, err := experiments.ReadSnapshot(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcfi-bench:", err)
		return 2
	}
	newRecs, err := experiments.ReadSnapshot(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcfi-bench:", err)
		return 2
	}
	d := experiments.DiffSnapshots(oldRecs, newRecs)
	fmt.Printf("diff %s -> %s (threshold %.0f%%)\n", args[0], args[1], thresholdPct)
	fmt.Print(d.Format(thresholdPct))
	code := 0
	if n := len(d.InstretDiffs); n > 0 {
		fmt.Fprintf(os.Stderr, "mcfi-bench: %d row(s) retired a different instruction count\n", n)
		code = 1
	}
	if regs := d.Regressions(thresholdPct); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "mcfi-bench: %d experiment(s) regressed more than %.0f%%\n",
			len(regs), thresholdPct)
		code = 1
	}
	if code == 0 {
		fmt.Printf("no regressions past %.0f%%, instret identical\n", thresholdPct)
	}
	return code
}

func sanity(c experiments.Config) error {
	if err := experiments.VerifyIDEncoding(); err != nil {
		return err
	}
	// Verify every instrumented workload module with the independent
	// verifier before trusting measurements from it.
	for _, w := range workload.All() {
		obj, err := experiments.ModuleOf(w.Name, c)
		if err != nil {
			return err
		}
		if err := verifier.Verify(obj); err != nil {
			return fmt.Errorf("%s failed verification: %v", w.Name, err)
		}
		fmt.Printf("  %-11s verified (%d bytes of code, %d IBs)\n",
			w.Name, len(obj.Code), len(obj.Aux.IBs))
	}
	return nil
}

func fig5(c experiments.Config) error {
	rows, err := experiments.Fig5(c)
	if err != nil {
		return err
	}
	recordOverheadRows("fig5", c, rows)
	fmt.Println("Fig. 5 — execution overhead of MCFI instrumentation (no updates)")
	fmt.Printf("%-12s %14s %14s %10s\n", "benchmark", "baseline", "MCFI", "overhead")
	for _, r := range rows {
		if r.Name == "average" {
			fmt.Printf("%-12s %14s %14s %9.2f%%\n", r.Name, "", "", r.OverheadPct)
			continue
		}
		fmt.Printf("%-12s %14d %14d %9.2f%%\n", r.Name, r.Baseline, r.MCFI, r.OverheadPct)
	}
	return nil
}

func fig6(c experiments.Config, hz int) error {
	rows, err := experiments.Fig6(c, hz)
	if err != nil {
		return err
	}
	recordOverheadRows("fig6", c, rows)
	fmt.Printf("Fig. 6 — overhead with update transactions at %d Hz\n", hz)
	fmt.Printf("%-12s %14s %14s %10s %9s %8s\n",
		"benchmark", "baseline", "MCFI", "overhead", "updates", "retries")
	for _, r := range rows {
		if r.Name == "average" {
			fmt.Printf("%-12s %14s %14s %9.2f%%\n", r.Name, "", "", r.OverheadPct)
			continue
		}
		fmt.Printf("%-12s %14d %14d %9.2f%% %9d %8d\n",
			r.Name, r.Baseline, r.MCFI, r.OverheadPct, r.Updates, r.Retries)
	}
	return nil
}

func stm() error {
	rows := experiments.STM(2_000_000, 4, 50)
	fmt.Println("§8.1 — normalized check-transaction cost (4 readers, 50 Hz updates)")
	fmt.Printf("%-8s %12s %12s\n", "scheme", "ns/check", "normalized")
	for _, r := range rows {
		fmt.Printf("%-8s %12.1f %12.2f\n", r.Name, r.NsPerCheck, r.Normalized)
	}
	return nil
}

func space(c experiments.Config) error {
	rows, err := experiments.Space(c)
	if err != nil {
		return err
	}
	fmt.Println("§8.1 — space overhead (static code size; Tary sized as code)")
	fmt.Printf("%-12s %10s %10s %10s %10s %10s\n",
		"benchmark", "baseline", "MCFI", "increase", "tary", "bary")
	for _, r := range rows {
		if r.Name == "average" {
			fmt.Printf("%-12s %10s %10s %9.2f%%\n", r.Name, "", "", r.IncreasePct)
			continue
		}
		fmt.Printf("%-12s %10d %10d %9.2f%% %10d %10d\n",
			r.Name, r.BaselineCode, r.MCFICode, r.IncreasePct, r.TaryBytes, r.BaryBytes)
	}
	return nil
}

func table1(c experiments.Config) error {
	rows, err := experiments.Tables12(c)
	if err != nil {
		return err
	}
	fmt.Println("Table 1 — C1 violations and false-positive elimination")
	fmt.Printf("%-12s %6s %5s %4s %4s %4s %4s %4s %5s\n",
		"benchmark", "SLOC", "VBE", "UC", "DC", "MF", "SU", "NF", "VAE")
	for _, r := range rows {
		rep := r.Rep
		fmt.Printf("%-12s %6d %5d %4d %4d %4d %4d %4d %5d\n",
			r.Name, rep.SLOC, rep.VBE, rep.UC, rep.DC, rep.MF, rep.SU, rep.NF, rep.VAE)
	}
	return nil
}

func table2(c experiments.Config) error {
	rows, err := experiments.Tables12(c)
	if err != nil {
		return err
	}
	fmt.Println("Table 2 — K1/K2 classification of residual violations")
	fmt.Printf("%-12s %5s %5s %5s   %s\n", "benchmark", "VAE", "K1", "K2", "note")
	for _, r := range rows {
		rep := r.Rep
		if rep.VAE == 0 {
			continue
		}
		note := "K1 cases are dead code (sources ship 'fixed', like gcc's 14)"
		if rep.K1 == 0 {
			note = "round-trip casts only; no fix needed"
		}
		fmt.Printf("%-12s %5d %5d %5d   %s\n", r.Name, rep.VAE, rep.K1, rep.K2, note)
	}
	return nil
}

func table3(c experiments.Config) error {
	rows, err := experiments.Table3(c)
	if err != nil {
		return err
	}
	fmt.Printf("Table 3 — CFG statistics (%s, scale %.2f)\n", c.Profile, c.GenScale)
	fmt.Printf("%-12s %8s %8s %8s %12s\n", "benchmark", "IBs", "IBTs", "EQCs", "gen time")
	for _, r := range rows {
		fmt.Printf("%-12s %8d %8d %8d %9.2f ms\n",
			r.Name, r.IBs, r.IBTs, r.EQCs, r.GenerationTimeMs)
	}
	return nil
}

func airTable(c experiments.Config) error {
	rows, err := experiments.AIRTable(c)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	order := rows[0].Order
	fmt.Println("§8.3 — AIR by policy")
	fmt.Printf("%-12s", "benchmark")
	for _, p := range order {
		fmt.Printf(" %12s", p)
	}
	fmt.Println()
	sums := make([]float64, len(order))
	for _, r := range rows {
		fmt.Printf("%-12s", r.Name)
		for i, p := range order {
			fmt.Printf(" %12.4f", r.Values[p])
			sums[i] += r.Values[p]
		}
		fmt.Println()
	}
	fmt.Printf("%-12s", "average")
	for i := range order {
		fmt.Printf(" %12.4f", sums[i]/float64(len(rows)))
	}
	fmt.Println()
	return nil
}

func ropTable(c experiments.Config) error {
	rows, err := experiments.ROP(c)
	if err != nil {
		return err
	}
	fmt.Println("§8.3 — ROP gadget elimination (rp++-style unique gadgets)")
	fmt.Printf("%-12s %10s %12s %10s %12s\n",
		"benchmark", "original", "raw-hardened", "usable", "eliminated")
	for _, r := range rows {
		if r.Name == "average" {
			fmt.Printf("%-12s %10s %12s %10s %11.2f%%\n", r.Name, "", "", "", r.EliminationPct)
			continue
		}
		fmt.Printf("%-12s %10d %12d %10d %11.2f%%\n",
			r.Name, r.Original, r.RawHardened, r.Usable, r.EliminationPct)
	}
	return nil
}

func updates(c experiments.Config, modules, checkers int) error {
	rows, err := experiments.UpdateThroughput(c, modules, checkers)
	if err != nil {
		return err
	}
	fmt.Printf("update-transaction throughput — dlopen storm (%d modules, %d check loops, %d-byte base)\n",
		rows[0].Modules, rows[0].Checkers, rows[0].CodeBytes)
	fmt.Printf("%-8s %10s %8s %10s %10s %12s %12s\n",
		"variant", "publishes", "delta", "wall", "upd/s", "retries", "checks")
	var delta, full float64
	for _, r := range rows {
		fmt.Printf("%-8s %10d %8d %9.3fs %10.1f %12d %12d\n",
			r.Variant, r.Publishes, r.DeltaPublishes, r.WallSecs, r.UpdatesPerSec, r.Retries, r.Checks)
		switch r.Variant {
		case "delta":
			delta = r.UpdatesPerSec
		case "full":
			full = r.UpdatesPerSec
		}
		records = append(records, experiments.BenchRecord{
			Experiment: "update_throughput", Benchmark: r.Variant,
			Engine: c.Engine.String(), Profile: c.Profile.String(),
			Instrumented: true, WallSecs: r.WallSecs,
			MinstrPerSec: r.UpdatesPerSec, // updates/s in the throughput slot
		})
	}
	if full > 0 {
		fmt.Printf("delta/full speedup: %.1fx\n", delta/full)
	}
	return nil
}

func cfggen(c experiments.Config) error {
	ms, stats, err := experiments.CFGGen(c)
	if err != nil {
		return err
	}
	fmt.Printf("§8.2 — type-matching CFG generation for gcc-scale input:\n")
	fmt.Printf("  %.2f ms (IBs=%d IBTs=%d EQCs=%d)\n", ms, stats.IBs, stats.IBTs, stats.EQCs)
	return nil
}
