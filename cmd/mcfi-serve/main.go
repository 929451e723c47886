// mcfi-serve runs the multi-tenant MCFI execution service: an HTTP
// daemon that builds submitted MiniC programs (or named workloads)
// through a tiered content-addressed build store and executes each job
// in an isolated MCFI runtime on a fixed worker pool, with per-job
// instruction budgets and wall-clock timeouts.
//
// Usage:
//
//	mcfi-serve -addr :8377 -workers 4 -queue 8 -store-dir /var/cache/mcfi
//
// Endpoints (versioned under /v1/):
//
//	POST /v1/run        {"workload":"qsort","work":2000}  or  {"source":"int main..."}
//	                    or {"kind":"dlopen","work":8} / {"kind":"jitsim"} — synthesized
//	                    dynamic-linking guests that stress update transactions
//	GET  /v1/healthz    200 while serving, 503 once draining; JSON self-ID body
//	GET  /v1/metrics    JSON counters: jobs, queue, tenants, build store
//	GET  /v1/metrics?format=prom  the same snapshot in Prometheus text format
//	GET  /v1/trace/{id} one sampled job's span set (see -trace-sample)
//	GET  /v1/audit      recent CFI-violation audit records (see -audit-log)
//
// Admission runs through a per-tenant round-robin scheduler: each
// backlogged tenant is served one job per turn. A full queue is
// refused with a 429 carrying Retry-After: 1.
//
// With -store-dir, compiled images and per-flavor libc objects persist
// across restarts (a warm restart recompiles nothing), and the
// directory may be shared by concurrent server processes. The store
// has no HTTP endpoint: every image a job runs was compiled by this
// process or read back from its own -store-dir.
//
// Observability: every job is assigned a trace ID at ingress and, when
// sampled by -trace-sample, its admission/queue/build/run spans are
// retrievable at /v1/trace/{id}. Every CFI violation emits an audit
// record — tenant, build fingerprint, faulting PC, refused branch
// target, check kind — kept in a bounded ring at /v1/audit and
// optionally appended as NDJSON to -audit-log. -pprof-addr serves
// net/http/pprof on a separate listener so profiling is never exposed
// on the job port.
//
// On SIGTERM/SIGINT the server stops admitting jobs, finishes the
// queue within -drain-grace, force-cancels whatever is still running,
// and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcfi/internal/server"
)

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func main() {
	addr := flag.String("addr", ":8377", "listen address")
	workers := flag.Int("workers", 0, "execution pool width (0 = default 4)")
	queueDepth := flag.Int("queue", 0, "admission queue depth across all tenants (0 = 2x workers)")
	maxInstr := flag.Int64("max-instr", 0, "default per-job instruction budget (0 = 2e9)")
	timeout := flag.Duration("timeout", 0, "default per-job wall-clock limit (0 = 60s)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory store tier capacity in images (0 = 256)")
	storeDir := flag.String("store-dir", "", "persistent build-store directory (empty = in-memory only)")
	traceSample := flag.Float64("trace-sample", 1.0, "fraction of jobs traced end to end (0 disables tracing)")
	traceBuffer := flag.Int("trace-buffer", 0, "traces retained in memory (0 = 1024)")
	auditLog := flag.String("audit-log", "", "append every CFI-violation audit record as NDJSON to this file")
	auditBuffer := flag.Int("audit-buffer", 0, "audit records retained in memory (0 = 1024)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "time queued jobs get to finish on shutdown")
	flag.Parse()

	log.SetPrefix("mcfi-serve: ")
	log.SetFlags(log.LstdFlags)

	// Config treats 0 as "default on" — the flag's 0 means "off".
	sample := *traceSample
	if sample <= 0 {
		sample = -1
	}
	var auditSink io.Writer // stays a true nil interface when unset
	if *auditLog != "" {
		f, ferr := os.OpenFile(*auditLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			log.Fatalf("audit log: %v", ferr)
		}
		defer f.Close()
		auditSink = f
	}

	s, err := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheEntries:    *cacheEntries,
		StoreDir:        *storeDir,
		DefaultMaxInstr: *maxInstr,
		DefaultTimeout:  *timeout,
		TraceSample:     sample,
		TraceBuffer:     *traceBuffer,
		AuditBuffer:     *auditBuffer,
		AuditSink:       auditSink,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *storeDir != "" {
		st := s.Store().Metrics()
		for _, tier := range st.Tiers {
			if tier.Tier == "disk" {
				log.Printf("build store: %s (%d artifacts, %d KiB)", *storeDir, tier.Entries, tier.Bytes/1024)
			}
		}
	}

	if *pprofAddr != "" {
		// pprof gets its own listener and an explicit mux: the job
		// port never exposes the profiling surface.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
		log.Printf("pprof on %s", *pprofAddr)
	}
	if sample > 0 {
		log.Printf("tracing: sample=%.3g, audit-log=%s", *traceSample, orDash(*auditLog))
	} else {
		log.Printf("tracing: off, audit-log=%s", orDash(*auditLog))
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s", *addr)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "mcfi-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process immediately

	log.Printf("shutdown: draining (grace %s)", *drainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	s.Drain(drainCtx) // rejects new jobs, finishes the queue, force-cancels on expiry
	cancel()

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	m := s.MetricsSnapshot()
	log.Printf("drained: %d jobs completed, %d CFI violations, %.0f%% store hit rate (%d builds, %d libc compiles)",
		m.Jobs.Completed, m.Jobs.CFIViolations, 100*m.BuildStore.HitRate,
		m.BuildStore.Builds, m.BuildStore.ObjectBuilds)
}
