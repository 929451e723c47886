package server

// Observability surface: the span-recording helpers runJob and the
// worker call, the /v1/trace/{id} and /v1/audit endpoints, and the
// Prometheus text rendering of /v1/metrics?format=prom. All of it
// reads the same counters as the JSON metrics document — the two
// formats can never disagree.

import (
	"net/http"
	"sort"
	"strings"
	"time"

	"mcfi/internal/obs"
)

// Version identifies the serving build (reported by /v1/healthz).
const Version = "0.9.0"

// maxTraceIDLen bounds the trace ID a /v1/trace/{id} lookup accepts.
const maxTraceIDLen = 64

// mintTrace mints a job's trace ID at ingress, collapsing to "" (tracing
// off for this job) when the ID is not sampled — the empty ID
// short-circuits every later span call to a nil check. No caller can
// choose the ID: a trace records only what this server observed.
func (s *Server) mintTrace() string {
	id := obs.Mint()
	if !s.tracer.Sampled(id) {
		return ""
	}
	return id
}

// stampAdmission marks the end of a job's admission phase. It MUST
// run before the job is handed to the scheduler: once enqueued, a
// worker may pop the job immediately and read these fields, and the
// enqueue is the only happens-before edge between the two goroutines.
func (s *Server) stampAdmission(j *job) {
	j.admitted = time.Now()
	j.admitDur = j.admitted.Sub(j.queuedAt)
}

// admitSpan records the ingress→admitted span of a stamped job
// (called only after admission succeeds, so refused jobs leave no
// span; it only reads the job, which a worker may already own).
func (s *Server) admitSpan(j *job) {
	s.span(j, obs.SpanAdmission, j.queuedAt, j.admitDur,
		map[string]string{"tenant": j.tenant})
}

// span records one phase of a sampled job.
func (s *Server) span(j *job, name string, start time.Time, dur time.Duration, attrs map[string]string) {
	if j.trace == "" {
		return
	}
	s.tracer.Record(obs.Span{
		Trace:   j.trace,
		Name:    name,
		StartNs: start.UnixNano(),
		DurNs:   dur.Nanoseconds(),
		Attrs:   attrs,
	})
}

// handleTrace serves GET /v1/trace/{id}: the span set this server
// recorded for one of its own jobs.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.Contains(id, "/") || len(id) > maxTraceIDLen {
		http.Error(w, "bad trace id", http.StatusBadRequest)
		return
	}
	tr, ok := s.tracer.Get(id)
	if !ok {
		http.Error(w, "trace not found (unsampled, evicted, or never seen)", http.StatusNotFound)
		return
	}
	writeJSON(w, tr)
}

// AuditPage is the GET /v1/audit body.
type AuditPage struct {
	// Total counts records ever emitted; Records is the retained tail
	// (oldest first), bounded by Config.AuditBuffer.
	Total      int64             `json:"total"`
	SinkErrors int64             `json:"sink_errors"`
	Records    []obs.AuditRecord `json:"records"`
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	recs := s.audit.Records()
	if recs == nil {
		recs = []obs.AuditRecord{}
	}
	writeJSON(w, AuditPage{
		Total:      s.audit.Total(),
		SinkErrors: s.audit.SinkErrs(),
		Records:    recs,
	})
}

// Audit exposes the audit log (tests, embedding callers).
func (s *Server) Audit() *obs.AuditLog { return s.audit }

// Tracer exposes the trace recorder (tests, embedding callers).
func (s *Server) Tracer() *obs.Recorder { return s.tracer }

// renderProm renders the metrics document in Prometheus text
// exposition format from the same snapshot as the JSON endpoint.
func (s *Server) renderProm() []byte {
	m := s.MetricsSnapshot()
	p := obs.NewProm()

	p.Gauge("mcfi_uptime_seconds", "seconds since server start", m.UptimeSecs)
	p.Gauge("mcfi_draining", "1 while the server is draining", b2f(m.Draining))

	p.Counter("mcfi_jobs_accepted_total", "jobs admitted by the scheduler", float64(m.Jobs.Accepted))
	p.Counter("mcfi_jobs_completed_total", "jobs completed (any outcome)", float64(m.Jobs.Completed))
	p.CounterVec("mcfi_jobs_rejected_total", "jobs refused at admission",
		[]obs.Label{{Name: "scope", Value: "queue"}}, float64(m.Jobs.Rejected))
	for _, o := range []struct {
		outcome string
		n       int64
	}{
		{StatusOK, m.Jobs.Ok},
		{StatusCFI, m.Jobs.CFIViolations},
		{StatusFault, m.Jobs.Faults},
		{StatusTimeout, m.Jobs.Timeouts},
		{StatusCancelled, m.Jobs.Cancelled},
		{StatusBudget, m.Jobs.BudgetExhausted},
		{StatusBuildError, m.Jobs.BuildErrors},
	} {
		p.CounterVec("mcfi_jobs_total", "completed jobs by outcome",
			[]obs.Label{{Name: "outcome", Value: o.outcome}}, float64(o.n))
	}

	p.Gauge("mcfi_queue_depth", "jobs admitted but not yet running", float64(m.Queue.Depth))
	p.Gauge("mcfi_queue_capacity", "shared admission queue bound", float64(m.Queue.Capacity))
	p.Gauge("mcfi_workers", "worker pool width", float64(m.Queue.Workers))
	p.Gauge("mcfi_workers_busy", "workers currently executing a job", float64(m.Queue.Busy))

	for _, t := range m.Tenants {
		lbl := []obs.Label{{Name: "tenant", Value: t.Tenant}}
		p.GaugeVec("mcfi_tenant_queued", "queued jobs by tenant", lbl, float64(t.Queued))
	}
	for _, t := range m.Tenants {
		lbl := []obs.Label{{Name: "tenant", Value: t.Tenant}}
		p.CounterVec("mcfi_tenant_submitted_total", "jobs submitted by tenant", lbl, float64(t.Submitted))
	}
	for _, t := range m.Tenants {
		lbl := []obs.Label{{Name: "tenant", Value: t.Tenant}}
		p.CounterVec("mcfi_tenant_completed_total", "jobs completed by tenant", lbl, float64(t.Completed))
	}
	for _, t := range m.Tenants {
		lbl := []obs.Label{{Name: "tenant", Value: t.Tenant}}
		p.CounterVec("mcfi_tenant_refused_total", "admission refusals by tenant", lbl, float64(t.Refused))
	}

	p.Counter("mcfi_store_hits_total", "build-store hits (any tier)", float64(m.BuildStore.Hits))
	p.Counter("mcfi_store_misses_total", "build-store misses", float64(m.BuildStore.Misses))
	p.Counter("mcfi_store_builds_total", "fresh image builds", float64(m.BuildStore.Builds))
	p.Counter("mcfi_store_failed_builds_total", "deterministic build failures", float64(m.BuildStore.FailedBuilds))
	for _, tier := range sortedKeys(m.BuildStore.TierHits) {
		p.CounterVec("mcfi_store_tier_hits_total", "build-store hits by tier",
			[]obs.Label{{Name: "tier", Value: tier}}, float64(m.BuildStore.TierHits[tier]))
	}

	p.Counter("mcfi_guest_instret_total", "retired guest instructions", float64(m.Exec.GuestInstret))
	p.Counter("mcfi_exec_seconds_total", "wall seconds of guest execution", m.Exec.ExecSecs)
	p.Counter("mcfi_check_execs_total", "fused check transactions executed", float64(m.Exec.CheckExecs))
	p.Counter("mcfi_check_halts_total", "halted check transactions (CFI faults)", float64(m.Exec.CheckHalts))
	p.Counter("mcfi_icache_fills_total", "cold predecodes into the instruction cache", float64(m.Exec.ICacheFills))
	p.Counter("mcfi_jit_blocks_compiled_total", "blockjit blocks compiled", float64(m.Exec.JITBlocks))
	p.Counter("mcfi_jit_block_runs_total", "compiled-block dispatches", float64(m.Exec.JITBlockRuns))
	p.Counter("mcfi_jit_cold_steps_total", "single-instruction dispatches under blockjit", float64(m.Exec.JITColdSteps))

	p.Gauge("mcfi_trace_sample_rate", "fraction of jobs traced", m.Obs.TraceSampleRate)
	p.Counter("mcfi_traces_sampled_total", "traces admitted to the ring", float64(m.Obs.TracesSampled))
	p.Counter("mcfi_trace_spans_total", "spans recorded", float64(m.Obs.SpansRecorded))
	p.Counter("mcfi_traces_evicted_total", "traces evicted from the ring", float64(m.Obs.TracesEvicted))
	p.Gauge("mcfi_traces_retained", "traces currently in the ring", float64(m.Obs.TracesRetained))
	p.Counter("mcfi_audit_records_total", "CFI violation audit records emitted", float64(m.Obs.AuditRecords))
	p.Counter("mcfi_audit_sink_errors_total", "audit records that failed to reach the -audit-log sink", float64(m.Obs.AuditSinkErrors))

	p.Histogram("mcfi_queue_wait_seconds", "admission-to-dequeue wait", "tenant", s.queueHist.Snapshot())
	p.Histogram("mcfi_build_seconds", "build phase duration by store tier", "tier", s.buildHist.Snapshot())
	p.Histogram("mcfi_run_seconds", "guest execution duration by engine", "engine", s.runHist.Snapshot())

	return p.Bytes()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
