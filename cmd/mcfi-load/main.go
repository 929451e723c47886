// mcfi-load drives one mcfi-serve instance — or a replica set — with a
// mixed corpus at a fixed concurrency and reports serving throughput:
// jobs/s, aggregate guest Minstr/s (end-to-end and execution-only),
// build-cache hit rate, backpressure rejections, and per-tenant /
// per-replica breakdowns. With -json it writes the run as a
// BENCH_*_serving.json snapshot; with -bench-json it appends
// mcfi-bench-compatible records so the run can be gated by
// `mcfi-bench -diff`.
//
// Usage:
//
//	mcfi-load -addr http://127.0.0.1:8377 -c 8 -n 36
//	mcfi-load -addrs http://h1:8481,http://h2:8482 -tenants a,b,c -n 10000 -distinct 48
//	mcfi-load -workloads qsort,matmul -work 500 -json BENCH_serving.json
//	mcfi-load -distinct 48 -batch 16 -bench-json BENCH_cluster.json -bench-label replicas=3
//	mcfi-load -job-mix run=4,dlopen=1,jitsim=1 -n 60  # mixed kinds, per-kind latency
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"mcfi/internal/experiments"
	"mcfi/internal/server"
	"mcfi/internal/vm"
)

// parseJobMix parses "run=4,dlopen=1,jitsim=1" (kind names without a
// weight count as weight 1); RunLoad validates the kind names.
func parseJobMix(s string) (map[string]int, error) {
	mix := map[string]int{}
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		kind, wstr, ok := strings.Cut(p, "=")
		w := 1
		if ok {
			n, err := strconv.Atoi(strings.TrimSpace(wstr))
			if err != nil {
				return nil, fmt.Errorf("bad -job-mix entry %q: %v", p, err)
			}
			w = n
		}
		mix[strings.TrimSpace(kind)] = w
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty -job-mix")
	}
	return mix, nil
}

func parseList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8377", "base URL of one mcfi-serve instance")
	addrs := flag.String("addrs", "", "comma-separated replica base URLs (overrides -addr; submissions round-robin)")
	concurrency := flag.Int("c", 8, "in-flight requests")
	requests := flag.Int("n", 0, "total jobs to run (0 = 3 per workload/source)")
	tenants := flag.String("tenants", "", "comma-separated tenant names to cycle jobs across")
	workloads := flag.String("workloads", "", "comma-separated workload names (default: all)")
	distinct := flag.Int("distinct", 0, "use a synthetic corpus of this many distinct sources instead of named workloads")
	synthFuncs := flag.Int("synth-funcs", 0, "functions per synthetic source (0 = 256)")
	batch := flag.Int("batch", 0, "submit via POST /v1/batch in groups of this size (0/1 = per-job POST /v1/run)")
	jobMix := flag.String("job-mix", "", "weighted job-kind mix, e.g. run=4,dlopen=1,jitsim=1 (per-kind latency reported)")
	work := flag.Int("work", 0, "override workload iteration count (0 = reference inputs)")
	testWork := flag.Bool("test-work", false, "use each workload's reduced test scale")
	engine := vm.EngineBlockJIT
	flag.Var((*vm.EngineFlag)(&engine), "engine", vm.EngineUsage())
	baseline := flag.Bool("baseline", false, "run uninstrumented baselines instead of MCFI builds")
	maxInstr := flag.Int64("max-instr", 0, "per-job instruction budget (0 = server default)")
	timeoutMs := flag.Int64("timeout-ms", 0, "per-job wall-clock limit in ms (0 = server default)")
	jsonPath := flag.String("json", "", "write the LoadReport snapshot to this file")
	benchJSON := flag.String("bench-json", "", "append an mcfi-bench BenchRecord for this run to this snapshot file")
	benchLabel := flag.String("bench-label", "", "benchmark label for the -bench-json record (e.g. replicas=3)")
	flag.Parse()

	cfg := server.LoadConfig{
		BaseURL:        strings.TrimRight(*addr, "/"),
		Addrs:          parseList(*addrs),
		Concurrency:    *concurrency,
		Requests:       *requests,
		Tenants:        parseList(*tenants),
		Distinct:       *distinct,
		SyntheticFuncs: *synthFuncs,
		Batch:          *batch,
		Work:           *work,
		UseTestWork:    *testWork,
		Engine:         engine.String(),
		Baseline:       *baseline,
		MaxInstr:       *maxInstr,
		TimeoutMs:      *timeoutMs,
	}
	if len(cfg.Addrs) > 0 {
		cfg.BaseURL = "" // -addrs replaces -addr entirely
	}
	if *workloads != "" {
		cfg.Workloads = parseList(*workloads)
	}
	if *jobMix != "" {
		mix, err := parseJobMix(*jobMix)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcfi-load:", err)
			os.Exit(2)
		}
		cfg.JobMix = mix
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	rep, err := server.RunLoad(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcfi-load:", err)
		os.Exit(1)
	}
	fmt.Print(rep.Summary())

	if *jsonPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcfi-load: marshal report:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mcfi-load: write report:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote serving snapshot to %s\n", *jsonPath)
	}

	if *benchJSON != "" {
		if err := appendBenchRecord(*benchJSON, *benchLabel, rep); err != nil {
			fmt.Fprintln(os.Stderr, "mcfi-load:", err)
			os.Exit(1)
		}
		fmt.Printf("appended bench record %q to %s\n", *benchLabel, *benchJSON)
	}

	if bad := rep.Requests - int(rep.Statuses[server.StatusOK]); bad > 0 {
		fmt.Fprintf(os.Stderr, "mcfi-load: %d of %d jobs did not complete ok\n", bad, rep.Requests)
		os.Exit(1)
	}
}

// appendBenchRecord folds this run into an mcfi-bench snapshot so the
// serving-cluster scaling curve can be gated by `mcfi-bench -diff`.
// MinstrPerSec carries jobs/s (the quantity the cluster experiment
// scales); StoreHits/StoreBuilds carry the corpus hit/build split.
func appendBenchRecord(path, label string, rep *server.LoadReport) error {
	if label == "" {
		label = fmt.Sprintf("replicas=%d", len(rep.Addrs))
	}
	var recs []experiments.BenchRecord
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("parse %s: %v", path, err)
		}
	}
	rec := experiments.BenchRecord{
		Experiment:   "serving_cluster",
		Benchmark:    label,
		Engine:       rep.Engine,
		Profile:      "serve",
		Instrumented: true,
		WallSecs:     rep.WallSecs,
		// No Instret: the record's work is its -n job count, so a
		// scaled-down rerun retires fewer instructions by design.
		MinstrPerSec: rep.JobsPerSec,
		StoreHits:    rep.StoreTiers,
		StoreBuilds:  rep.StoreTiers["built"],
	}
	if len(rep.TenantLoads) > 0 {
		rec.TenantLatMs = make(map[string][3]float64, len(rep.TenantLoads))
		for _, t := range rep.TenantLoads {
			rec.TenantLatMs[t.Tenant] = [3]float64{t.P50Ms, t.P95Ms, t.P99Ms}
		}
	}
	// Replace a same-key record from a prior run, else append.
	replaced := false
	for i := range recs {
		if recs[i].Key() == rec.Key() {
			recs[i] = rec
			replaced = true
		}
	}
	if !replaced {
		recs = append(recs, rec)
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
