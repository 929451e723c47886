// mcfi-load drives one mcfi-serve instance with a mixed corpus at a
// fixed concurrency and reports serving throughput: jobs/s, aggregate
// guest Minstr/s (end-to-end and execution-only), build-cache hit
// rate, backpressure rejections, and per-tenant / per-kind breakdowns.
// With -json it writes the run as a BENCH_*_serving.json snapshot.
//
// Usage:
//
//	mcfi-load -addr http://127.0.0.1:8377 -c 8 -n 36
//	mcfi-load -tenants a,b,c -workloads bzip2,mcf -test-work -n 60
//	mcfi-load -workloads qsort,matmul -work 500 -json BENCH_serving.json
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
	concurrency := flag.Int("c", 8, "in-flight requests")
	requests := flag.Int("n", 0, "total jobs to run (0 = 3 per workload/source)")
	tenants := flag.String("tenants", "", "comma-separated tenant names to cycle jobs across")
	workloads := flag.String("workloads", "", "comma-separated workload names (default: all)")
	jobMix := flag.String("job-mix", "", "weighted job-kind mix, e.g. run=4,dlopen=1,jitsim=1 (per-kind latency reported)")
	work := flag.Int("work", 0, "override workload iteration count (0 = reference inputs)")
	testWork := flag.Bool("test-work", false, "use each workload's reduced test scale")
	engine := vm.EngineBlockJIT
	flag.Var((*vm.EngineFlag)(&engine), "engine", vm.EngineUsage())
	baseline := flag.Bool("baseline", false, "run uninstrumented baselines instead of MCFI builds")
	maxInstr := flag.Int64("max-instr", 0, "per-job instruction budget (0 = server default)")
	timeoutMs := flag.Int64("timeout-ms", 0, "per-job wall-clock limit in ms (0 = server default)")
	jsonPath := flag.String("json", "", "write the LoadReport snapshot to this file")
	flag.Parse()

	cfg := server.LoadConfig{
		BaseURL:     *addr,
		Concurrency: *concurrency,
		Requests:    *requests,
		Tenants:     parseList(*tenants),
		Work:        *work,
		UseTestWork: *testWork,
		Engine:      engine.String(),
		Baseline:    *baseline,
		MaxInstr:    *maxInstr,
		TimeoutMs:   *timeoutMs,
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

	if bad := rep.Requests - int(rep.Statuses[server.StatusOK]); bad > 0 {
		fmt.Fprintf(os.Stderr, "mcfi-load: %d of %d jobs did not complete ok\n", bad, rep.Requests)
		os.Exit(1)
	}
}
