// Package server is the MCFI execution service: a long-running,
// multi-tenant front end over the toolchain + runtime + VM stack.
// Jobs (a named workload or raw MiniC source) are compiled through a
// content-addressed build store (mem, disk and remote tiers), then
// executed each in its own sandboxed vm.Process on a fixed worker pool
// with per-job instruction budgets and wall-clock timeouts.
//
// Admission runs through a per-tenant deficit-weighted round-robin
// scheduler (internal/cluster): each backlogged tenant gets a service
// share proportional to its weight, so one hot tenant cannot starve
// the rest. Overflow of the shared queue is refused immediately (HTTP
// 429 with a Retry-After derived from the observed drain rate), and
// shutdown is a graceful drain: stop admitting, finish or cancel
// in-flight jobs, keep /metrics readable throughout.
//
// The point of the service (vs. the one-shot CLIs) is that MCFI's
// policy machinery keeps enforcing while untrusted code runs
// continuously: enforcement outcomes — clean exit, CFI violation,
// budget exhaustion, timeout — are first-class, distinguishable
// results in the API, and a violating job never poisons its worker.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcfi/internal/buildstore"
	"mcfi/internal/cluster"
	"mcfi/internal/mrt"
	"mcfi/internal/obs"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

// Job statuses: every completed job carries exactly one.
const (
	StatusOK         = "ok"               // clean guest exit (see ExitCode)
	StatusCFI        = "cfi_violation"    // halted check transaction
	StatusFault      = "fault"            // non-CFI guest fault
	StatusTimeout    = "timeout"          // wall-clock deadline cancelled the run
	StatusCancelled  = "cancelled"        // caller went away or server drained
	StatusBudget     = "budget_exhausted" // instruction budget ran out
	StatusBuildError = "build_error"      // source failed to compile/link
)

// maxRequestBytes bounds one /v1/run request body.
const maxRequestBytes = 32 << 20

// DefaultTenant is the tenant name applied to requests that do not
// set one.
const DefaultTenant = "default"

// Submission errors.
var (
	// ErrBusy: the shared admission queue is full (backpressure; HTTP 429).
	ErrBusy = errors.New("server: queue full")
	// ErrDraining: the server no longer admits jobs (HTTP 503).
	ErrDraining = errors.New("server: draining")
)

// JobRequest is one execution request.
type JobRequest struct {
	// Workload names a built-in benchmark (workload.All); Work
	// overrides its iteration count (0 = reference input). Mutually
	// exclusive with Source.
	Workload string `json:"workload,omitempty"`
	Work     int    `json:"work,omitempty"`
	// Source is raw MiniC text compiled as one translation unit; Name
	// labels it in diagnostics (default "job").
	Source string `json:"source,omitempty"`
	Name   string `json:"name,omitempty"`
	// Kind selects the job shape: "run" (default) executes the
	// workload/source as-is; "dlopen" synthesizes a dlopen storm (the
	// guest loads Work modules, each a policy update transaction);
	// "jitsim" synthesizes a staged-JIT guest (few modules, hot checked
	// calls through each stage). The dynamic kinds take no workload or
	// source; Work scales the module count.
	Kind string `json:"kind,omitempty"`
	// Tenant attributes the job for weighted-fair scheduling (default
	// "default").
	Tenant string `json:"tenant,omitempty"`
	// Baseline skips MCFI instrumentation; Profile selects 32/64
	// (default 64); Engine selects any vm.EngineNames() entry (default
	// blockjit).
	Baseline bool   `json:"baseline,omitempty"`
	Profile  int    `json:"profile,omitempty"`
	Engine   string `json:"engine,omitempty"`
	// MaxInstr caps retired guest instructions (0 = server default);
	// TimeoutMs caps wall time (0 = server default).
	MaxInstr  int64 `json:"max_instr,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// FaultInfo describes a guest fault in a result.
type FaultInfo struct {
	Kind string `json:"kind"`
	PC   int64  `json:"pc"`
	Msg  string `json:"msg"`
}

// JobResult is the outcome of one completed job.
type JobResult struct {
	Status   string `json:"status"`
	ExitCode int64  `json:"exit_code"`
	Instret  int64  `json:"instret"`
	// Tenant echoes the scheduling tenant.
	Tenant string `json:"tenant,omitempty"`
	// StoreTier names where the job's image came from: "mem", "disk",
	// "remote", or "built" (compiled for this job). BuildCacheHit is
	// the legacy boolean view of the same fact (any tier but "built").
	StoreTier     string `json:"store_tier,omitempty"`
	BuildCacheHit bool   `json:"build_cache_hit"`
	// Updates counts the job's table update transactions (initial
	// policy publication plus one per dlopen/dlsym policy change);
	// DeltaPublishes is how many of those took the incremental delta
	// path instead of a full table rebuild. Zero for baseline jobs.
	Updates        int64      `json:"updates,omitempty"`
	DeltaPublishes int64      `json:"delta_publishes,omitempty"`
	QueueMs        float64    `json:"queue_ms"`
	BuildMs        float64    `json:"build_ms"`
	RunMs          float64    `json:"run_ms"`
	Output         string     `json:"output,omitempty"`
	Error          string     `json:"error,omitempty"`
	Fault          *FaultInfo `json:"fault,omitempty"`
	// TraceID names the job's recorded trace, retrievable at
	// /v1/trace/{id} while it stays in the ring (empty when the job
	// was not sampled). Phases is the phase-duration summary attached
	// to every completed job.
	TraceID string        `json:"trace_id,omitempty"`
	Phases  *PhaseSummary `json:"phases,omitempty"`
}

// PhaseSummary breaks a job's wall time into pipeline phases
// (milliseconds). StoreMs covers the build-store probe (and any wait
// on a coalesced in-flight build); CompileMs/LinkMs are nonzero only
// when the job actually built (store tier "built").
type PhaseSummary struct {
	AdmissionMs float64 `json:"admission_ms"`
	QueueMs     float64 `json:"queue_ms"`
	StoreMs     float64 `json:"store_ms"`
	CompileMs   float64 `json:"compile_ms"`
	LinkMs      float64 `json:"link_ms"`
	RunMs       float64 `json:"run_ms"`
}

// Config sizes the service.
type Config struct {
	// Workers is the execution pool width (default 4).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running across all
	// tenants; overflow is rejected with ErrBusy (default 2×Workers).
	QueueDepth int
	// TenantWeights sets per-tenant DWRR service shares (unlisted
	// tenants weigh 1).
	TenantWeights map[string]int
	// CacheEntries bounds the in-memory store tier (default
	// buildstore.DefaultMemEntries).
	CacheEntries int
	// StoreDir, when set, adds a persistent on-disk store tier rooted
	// there: images and libc objects survive restarts, and concurrent
	// server processes may share the directory.
	StoreDir string
	// RemoteStore, when set, adds a remote store tier: the base URL of
	// another mcfi-serve (or shared cache) whose /v1/store endpoint is
	// consulted after mem and disk, and published to on fresh builds
	// (publishing requires StoreSecret).
	RemoteStore string
	// StoreSecret is the shared secret that authenticates the
	// /v1/store write plane: PUTs this server accepts, and blobs this
	// server fetches from or publishes to RemoteStore, carry an
	// HMAC binding payload to key. Empty means the store surface is
	// read-only: all incoming PUTs are refused, nothing is published to
	// RemoteStore, and fetched blobs are integrity-checked only.
	StoreSecret string
	// DefaultMaxInstr is the per-job instruction budget when a request
	// does not set one (default 2e9). <0 disables the default.
	DefaultMaxInstr int64
	// DefaultTimeout is the per-job wall-clock limit when a request
	// does not set one (default 60s).
	DefaultTimeout time.Duration
	// MaxOutputBytes truncates captured guest output (default 1 MiB).
	MaxOutputBytes int64
	// BuildJobs bounds per-build compile concurrency (default 1: the
	// pool itself provides the parallelism).
	BuildJobs int
	// TraceSample is the fraction of jobs traced end to end, decided
	// deterministically from the trace ID (0 → default 1.0; negative →
	// tracing off).
	TraceSample float64
	// TraceBuffer bounds retained traces (default
	// obs.DefaultTraceBuffer); the oldest trace is evicted first.
	TraceBuffer int
	// AuditBuffer bounds the in-memory CFI audit ring (default
	// obs.DefaultAuditBuffer). AuditSink, when set, additionally
	// receives every audit record as one NDJSON line (the -audit-log
	// file); sink errors are counted, never surfaced to jobs.
	AuditBuffer int
	AuditSink   io.Writer
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.DefaultMaxInstr == 0 {
		c.DefaultMaxInstr = 2_000_000_000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxOutputBytes <= 0 {
		c.MaxOutputBytes = 1 << 20
	}
	if c.BuildJobs <= 0 {
		c.BuildJobs = 1
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	} else if c.TraceSample < 0 {
		c.TraceSample = 0 // explicit off
	}
}

// job is one admitted request plus its completion signal.
type job struct {
	req      JobRequest
	ctx      context.Context
	tenant   string
	maxInstr int64
	timeout  time.Duration
	queuedAt time.Time     // ingress (job creation)
	admitted time.Time     // scheduler accepted (zero if tracing off)
	admitDur time.Duration // ingress → admitted
	wait     time.Duration // set at dequeue
	trace    string        // sampled trace ID, "" when unsampled
	res      JobResult
	done     chan struct{}
}

// Server is one running MCFI execution service.
type Server struct {
	cfg   Config
	store *buildstore.Tiered
	disk  *buildstore.Disk // persistent tier, also served at /v1/store
	sched *cluster.Sched[*job]
	start time.Time

	draining atomic.Bool

	// force cancels every in-flight guest when Drain's grace period
	// expires.
	force     context.Context
	forceStop context.CancelFunc

	workers sync.WaitGroup
	busy    atomic.Int64

	completions *cluster.RateMeter // drain rate, powers Retry-After

	// Observability plane: the sampled trace ring, the CFI audit log,
	// and the latency histograms behind ?format=prom. queueHist also
	// yields the queue-wait percentiles of the JSON metrics.
	tracer    *obs.Recorder
	audit     *obs.AuditLog
	queueHist *obs.HistVec // by tenant
	buildHist *obs.HistVec // by store tier
	runHist   *obs.HistVec // by engine

	// Metrics counters (lock-free).
	accepted, completed, rejected        atomic.Int64
	ok, cfi, faults, timeouts, cancelled atomic.Int64
	budget, buildErrs                    atomic.Int64
	instret, execNanos                   atomic.Int64
	checkExecs, checkHalts               atomic.Int64
	icacheFills                          atomic.Int64
	jitBlocks, jitCompileNanos           atomic.Int64
	jitBlockRuns, jitColdSteps           atomic.Int64
}

// New starts a server's worker pool, assembling the build store from
// the config: always an in-memory tier, plus a disk tier when StoreDir
// is set and a remote tier when RemoteStore is set. It fails when the
// store directory cannot be opened. Callers must eventually Drain.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	tiers := []buildstore.Store{buildstore.NewMem(cfg.CacheEntries)}
	var disk *buildstore.Disk
	if cfg.StoreDir != "" {
		d, err := buildstore.OpenDisk(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		disk = d
		tiers = append(tiers, d)
	}
	if cfg.RemoteStore != "" {
		tiers = append(tiers, buildstore.NewRemote(cfg.RemoteStore, nil, cfg.StoreSecret))
	}

	s := &Server{
		cfg:   cfg,
		store: buildstore.NewTiered(tiers...),
		disk:  disk,
		sched: cluster.NewSched[*job](cluster.SchedConfig{
			TotalQueue: cfg.QueueDepth,
			Weights:    cfg.TenantWeights,
		}),
		completions: cluster.NewRateMeter(512, 10*time.Second),
		start:       time.Now(),
		tracer:      obs.NewRecorder(cfg.TraceSample, cfg.TraceBuffer),
		audit:       obs.NewAuditLog(cfg.AuditBuffer, cfg.AuditSink),
		queueHist:   obs.NewHistVec(nil),
		buildHist:   obs.NewHistVec(nil),
		runHist:     obs.NewHistVec(nil),
	}
	s.force, s.forceStop = context.WithCancel(context.Background())

	s.workers.Add(cfg.Workers)
	for range cfg.Workers {
		go s.worker()
	}
	return s, nil
}

// Store exposes the server's build store (metrics, tests, warm-up).
func (s *Server) Store() *buildstore.Tiered { return s.store }

// newJob resolves a request's effective limits and tenant.
func (s *Server) newJob(ctx context.Context, req JobRequest) *job {
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	maxInstr := s.cfg.DefaultMaxInstr
	if req.MaxInstr > 0 {
		maxInstr = req.MaxInstr
	}
	if maxInstr < 0 {
		maxInstr = 0
	}
	return &job{
		req: req, ctx: ctx, tenant: tenant,
		maxInstr: maxInstr, timeout: timeout,
		queuedAt: time.Now(), done: make(chan struct{}),
	}
}

// Submit admits a job and blocks until it completes. It returns
// ErrBusy when the shared queue refuses it (backpressure) and
// ErrDraining after Drain started; every other outcome (including CFI
// violations and faults) is a JobResult, not an error. The job's trace
// ID is minted here, at ingress.
func (s *Server) Submit(ctx context.Context, req JobRequest) (JobResult, error) {
	j := s.newJob(ctx, req)
	j.trace = s.mintTrace()
	s.stampAdmission(j)
	if err := s.sched.Submit(j.tenant, j); err != nil {
		if errors.Is(err, cluster.ErrClosed) {
			return JobResult{}, ErrDraining
		}
		s.rejected.Add(1) // cluster.ErrQueueFull
		return JobResult{}, ErrBusy
	}
	s.accepted.Add(1)
	s.admitSpan(j)
	<-j.done
	return j.res, nil
}

// Drain stops admission, waits for queued and in-flight jobs to finish,
// and — if ctx expires first — cancels every running guest, then waits
// for the (now prompt) pool shutdown. Always returns with the pool
// stopped.
func (s *Server) Drain(ctx context.Context) {
	if s.draining.Swap(true) {
		s.workers.Wait()
		return
	}
	// No new admissions; workers exit once the scheduler drains.
	s.sched.Close()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.forceStop() // cancel in-flight guests
		<-done
	}
	// Pool stopped: release the store (flushes the disk tier's journal
	// handle; the directory stays valid for the next process).
	s.store.Close()
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.sched.Next()
		if !ok {
			return
		}
		j.wait = time.Since(j.queuedAt)
		s.queueHist.Observe(j.tenant, j.wait)
		if !j.admitted.IsZero() {
			s.span(j, obs.SpanQueue, j.admitted, time.Since(j.admitted),
				map[string]string{"tenant": j.tenant})
		}
		s.busy.Add(1)
		j.res = s.runJob(j)
		s.recordResult(j.res)
		s.sched.Done(j.tenant)
		s.completions.Observe(time.Now())
		s.busy.Add(-1)
		close(j.done)
	}
}

// retryAfterSecs estimates how long a refused client should wait
// before retrying, from the current backlog over the observed drain
// rate, clamped to [1, 30] seconds.
func (s *Server) retryAfterSecs() int {
	depth := s.sched.Queued()
	rate := s.completions.PerSec(time.Now())
	if rate <= 0 {
		return 2 // cold start: no drain history yet
	}
	secs := int(math.Ceil(float64(depth+1) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// limitWriter truncates guest output host-side past a byte budget (the
// guest's writes still succeed — a tenant cannot detect or exploit the
// cap).
type limitWriter struct {
	buf []byte
	max int64
}

func (w *limitWriter) Write(p []byte) (int, error) {
	if int64(len(w.buf)) < w.max {
		keep := w.max - int64(len(w.buf))
		if keep > int64(len(p)) {
			keep = int64(len(p))
		}
		w.buf = append(w.buf, p[:keep]...)
	}
	return len(p), nil
}

// resolve turns a request into buildable sources plus the builder for
// its flavor. For the dynamic-linking job kinds it also returns the
// plugin module sources the runtime registers before execution.
func (s *Server) resolve(req JobRequest) (*toolchain.Builder, toolchain.Source, []toolchain.Source, error) {
	var src toolchain.Source
	var plugins []toolchain.Source
	switch req.Kind {
	case "", "run":
		switch {
		case req.Workload != "" && req.Source != "":
			return nil, src, nil, fmt.Errorf("request sets both workload and source")
		case req.Workload != "":
			w, ok := workload.ByName(req.Workload)
			if !ok {
				return nil, src, nil, fmt.Errorf("unknown workload %q", req.Workload)
			}
			src = toolchain.Source{Name: w.Name, Text: w.SourceWithWork(req.Work)}
		case req.Source != "":
			name := req.Name
			if name == "" {
				name = "job"
			}
			src = toolchain.Source{Name: name, Text: req.Source}
		default:
			return nil, src, nil, fmt.Errorf("request needs a workload name or source text")
		}
	case "dlopen", "jitsim":
		if req.Workload != "" || req.Source != "" {
			return nil, src, nil, fmt.Errorf("kind %q synthesizes its own guest; drop workload/source", req.Kind)
		}
		var err error
		src, plugins, err = dynSources(req.Kind, req.Work)
		if err != nil {
			return nil, src, nil, err
		}
	default:
		return nil, src, nil, fmt.Errorf("unknown job kind %q (want run, dlopen, or jitsim)", req.Kind)
	}
	profile := visa.Profile64
	switch req.Profile {
	case 0, 64:
	case 32:
		profile = visa.Profile32
	default:
		return nil, src, nil, fmt.Errorf("unknown profile %d (want 32 or 64)", req.Profile)
	}
	b := toolchain.New(
		toolchain.WithProfile(profile),
		toolchain.WithInstrument(!req.Baseline),
		toolchain.WithJobs(s.cfg.BuildJobs),
		toolchain.WithStore(s.store),
	)
	return b, src, plugins, nil
}

// runJob executes one job end to end: cache-keyed build, bounded run,
// outcome classification. It never panics the worker: a hostile or
// violating guest is torn down inside its own vm.Process.
func (s *Server) runJob(j *job) JobResult {
	res := JobResult{
		QueueMs: ms(j.wait),
		Tenant:  j.tenant,
		TraceID: j.trace,
	}
	if err := j.ctx.Err(); err != nil {
		res.Status, res.Error = StatusCancelled, "cancelled before execution"
		return res
	}

	b, src, plugins, err := s.resolve(j.req)
	if err != nil {
		res.Status, res.Error = StatusBuildError, err.Error()
		return res
	}
	engine, err := vm.ParseEngine(j.req.Engine)
	if err != nil {
		res.Status, res.Error = StatusBuildError, err.Error()
		return res
	}

	t0 := time.Now()
	img, tier, ph, err := b.BuildTraced(src)
	buildDur := time.Since(t0)
	res.BuildMs = ms(buildDur)
	res.StoreTier = string(tier)
	res.BuildCacheHit = tier != buildstore.TierBuilt
	s.buildHist.Observe(string(tier), buildDur)
	s.span(j, obs.SpanBuild, t0, buildDur, map[string]string{"tier": string(tier)})
	if ph.StoreNs > 0 {
		s.span(j, obs.SpanStore, t0, time.Duration(ph.StoreNs), nil)
	}
	if ph.CompileNs > 0 {
		s.span(j, obs.SpanCompile, t0, time.Duration(ph.CompileNs), nil)
	}
	if ph.LinkNs > 0 {
		s.span(j, obs.SpanLink, t0.Add(buildDur-time.Duration(ph.LinkNs)),
			time.Duration(ph.LinkNs), nil)
	}
	if err != nil {
		res.Status, res.Error = StatusBuildError, err.Error()
		res.Phases = &PhaseSummary{
			AdmissionMs: ms(j.admitDur),
			QueueMs:     res.QueueMs,
			StoreMs:     ms(time.Duration(ph.StoreNs)),
			CompileMs:   ms(time.Duration(ph.CompileNs)),
			LinkMs:      ms(time.Duration(ph.LinkNs)),
		}
		return res
	}

	out := &limitWriter{max: s.cfg.MaxOutputBytes}
	rt, err := mrt.New(img, mrt.Options{Out: out, Engine: engine})
	if err != nil {
		res.Status, res.Error = StatusBuildError, err.Error()
		return res
	}
	// Dynamic job kinds ship plugin modules the guest dlopens — each
	// load is a policy update transaction under serving load.
	for _, ps := range plugins {
		obj, cerr := b.Compile(ps)
		if cerr != nil {
			res.Status, res.Error = StatusBuildError, cerr.Error()
			return res
		}
		rt.RegisterLibrary(obj)
	}

	runCtx, cancel := context.WithTimeout(j.ctx, j.timeout)
	watchDone := make(chan struct{})
	ranDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-s.force.Done():
			cancel() // drain deadline: stop this guest now
		case <-ranDone:
		}
	}()

	t1 := time.Now()
	code, runErr := rt.RunContext(runCtx, j.maxInstr)
	execDur := time.Since(t1)
	close(ranDone)
	<-watchDone
	cancel()

	res.RunMs = ms(execDur)
	res.Instret = rt.Instret()
	res.Output = string(out.buf)
	if rt.Tables != nil {
		res.Updates = rt.Tables.Updates()
		res.DeltaPublishes, _ = rt.PublishStats()
	}
	s.instret.Add(res.Instret)
	s.execNanos.Add(execDur.Nanoseconds())
	st := rt.CheckStats()
	s.checkExecs.Add(st.Execs)
	s.checkHalts.Add(st.Halts)
	s.icacheFills.Add(st.ICacheFills)
	s.jitBlocks.Add(st.JITBlocks)
	s.jitCompileNanos.Add(st.JITCompileNanos)
	s.jitBlockRuns.Add(st.JITBlockRuns)
	s.jitColdSteps.Add(st.JITColdSteps)
	s.runHist.Observe(engine.String(), execDur)

	var fault *vm.Fault
	switch {
	case runErr == nil:
		res.Status, res.ExitCode = StatusOK, code
	case errors.Is(runErr, vm.ErrCancelled):
		if errors.Is(runCtx.Err(), context.DeadlineExceeded) {
			res.Status = StatusTimeout
			res.Error = fmt.Sprintf("wall-clock timeout after %v", j.timeout)
		} else {
			res.Status, res.Error = StatusCancelled, "cancelled"
		}
	case errors.Is(runErr, vm.ErrBudget):
		res.Status = StatusBudget
		res.Error = runErr.Error()
	case errors.As(runErr, &fault):
		res.Fault = &FaultInfo{Kind: fault.Kind.String(), PC: fault.PC, Msg: fault.Msg}
		if fault.Kind == vm.FaultCFI {
			res.Status = StatusCFI
			s.audit.Emit(obs.AuditRecord{
				Trace:       j.trace,
				Tenant:      j.tenant,
				Job:         src.Name,
				Engine:      engine.String(),
				Fingerprint: b.Fingerprint(src),
				PC:          fault.PC,
				Target:      fault.Target,
				Check:       fault.Check.String(),
				Msg:         fault.Msg,
				Instret:     res.Instret,
			})
		} else {
			res.Status = StatusFault
		}
		res.Error = fault.Error()
	default:
		res.Status, res.Error = StatusFault, runErr.Error()
	}
	s.span(j, obs.SpanRun, t1, execDur, map[string]string{
		"engine":         engine.String(),
		"status":         res.Status,
		"instret":        strconv.FormatInt(res.Instret, 10),
		"check_execs":    strconv.FormatInt(st.Execs, 10),
		"check_halts":    strconv.FormatInt(st.Halts, 10),
		"icache_fills":   strconv.FormatInt(st.ICacheFills, 10),
		"jit_blocks":     strconv.FormatInt(st.JITBlocks, 10),
		"jit_block_runs": strconv.FormatInt(st.JITBlockRuns, 10),
	})
	res.Phases = &PhaseSummary{
		AdmissionMs: ms(j.admitDur),
		QueueMs:     res.QueueMs,
		StoreMs:     ms(time.Duration(ph.StoreNs)),
		CompileMs:   ms(time.Duration(ph.CompileNs)),
		LinkMs:      ms(time.Duration(ph.LinkNs)),
		RunMs:       res.RunMs,
	}
	return res
}

func (s *Server) recordResult(res JobResult) {
	s.completed.Add(1)
	switch res.Status {
	case StatusOK:
		s.ok.Add(1)
	case StatusCFI:
		s.cfi.Add(1)
	case StatusFault:
		s.faults.Add(1)
	case StatusTimeout:
		s.timeouts.Add(1)
	case StatusCancelled:
		s.cancelled.Add(1)
	case StatusBudget:
		s.budget.Add(1)
	case StatusBuildError:
		s.buildErrs.Add(1)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// queuePercentiles reads p50/p95/p99 in milliseconds from a
// queue-wait histogram.
func queuePercentiles(h obs.HistSnapshot) (p50, p95, p99 float64) {
	return ms(h.Quantile(0.50)), ms(h.Quantile(0.95)), ms(h.Quantile(0.99))
}

// --- metrics ---

// Metrics is the /metrics document.
type Metrics struct {
	UptimeSecs float64               `json:"uptime_secs"`
	Draining   bool                  `json:"draining"`
	Jobs       JobCounts             `json:"jobs"`
	Queue      QueueState            `json:"queue"`
	Tenants    []cluster.TenantStats `json:"tenants,omitempty"`
	BuildStore buildstore.Metrics    `json:"build_store"`
	Exec       ExecMetrics           `json:"exec"`
	Obs        ObsMetrics            `json:"obs"`
}

// ObsMetrics reports the observability plane's own state: trace
// sampling and retention, and the CFI audit log.
type ObsMetrics struct {
	TraceSampleRate float64 `json:"trace_sample_rate"`
	TracesSampled   int64   `json:"traces_sampled"`
	SpansRecorded   int64   `json:"spans_recorded"`
	TracesEvicted   int64   `json:"traces_evicted"`
	TracesRetained  int     `json:"traces_retained"`
	AuditRecords    int64   `json:"audit_records_total"`
	AuditSinkErrors int64   `json:"audit_sink_errors"`
}

// JobCounts breaks down admission and outcomes.
type JobCounts struct {
	Accepted        int64 `json:"accepted"`
	Completed       int64 `json:"completed"`
	Rejected        int64 `json:"rejected"`
	Ok              int64 `json:"ok"`
	CFIViolations   int64 `json:"cfi_violations"`
	Faults          int64 `json:"faults"`
	Timeouts        int64 `json:"timeouts"`
	Cancelled       int64 `json:"cancelled"`
	BudgetExhausted int64 `json:"budget_exhausted"`
	BuildErrors     int64 `json:"build_errors"`
}

// QueueState reports live backpressure, including queue-wait
// percentiles since start (interpolated from the queue-wait
// histogram's buckets) and the Retry-After estimate 429s currently
// carry.
type QueueState struct {
	Depth          int     `json:"depth"`
	Capacity       int     `json:"capacity"`
	Workers        int     `json:"workers"`
	Busy           int     `json:"busy"`
	P50Ms          float64 `json:"queue_p50_ms"`
	P95Ms          float64 `json:"queue_p95_ms"`
	P99Ms          float64 `json:"queue_p99_ms"`
	RetryAfterSecs int     `json:"retry_after_secs"`
}

// ExecMetrics aggregates guest execution across all completed jobs.
type ExecMetrics struct {
	GuestInstret int64   `json:"guest_instret"`
	ExecSecs     float64 `json:"exec_secs"`
	MinstrPerSec float64 `json:"minstr_per_sec"`
	CheckExecs   int64   `json:"check_execs"`
	CheckHalts   int64   `json:"check_halts"`
	ICacheFills  int64   `json:"icache_fills"`
	// Block-compiler counters, aggregated across jobs that ran the
	// blockjit engine (zero otherwise). JITHotRatio is the fraction of
	// dispatches served by compiled blocks.
	JITBlocks      int64   `json:"jit_blocks_compiled"`
	JITCompileSecs float64 `json:"jit_compile_secs"`
	JITBlockRuns   int64   `json:"jit_block_runs"`
	JITColdSteps   int64   `json:"jit_cold_steps"`
	JITHotRatio    float64 `json:"jit_hot_ratio"`
}

// MetricsSnapshot assembles the live metrics document.
func (s *Server) MetricsSnapshot() Metrics {
	execSecs := float64(s.execNanos.Load()) / 1e9
	instret := s.instret.Load()
	queue := s.queueHist.Snapshot()
	m := Metrics{
		UptimeSecs: time.Since(s.start).Seconds(),
		Draining:   s.Draining(),
		Jobs: JobCounts{
			Accepted:        s.accepted.Load(),
			Completed:       s.completed.Load(),
			Rejected:        s.rejected.Load(),
			Ok:              s.ok.Load(),
			CFIViolations:   s.cfi.Load(),
			Faults:          s.faults.Load(),
			Timeouts:        s.timeouts.Load(),
			Cancelled:       s.cancelled.Load(),
			BudgetExhausted: s.budget.Load(),
			BuildErrors:     s.buildErrs.Load(),
		},
		Queue: QueueState{
			Depth:          s.sched.Queued(),
			Capacity:       s.cfg.QueueDepth,
			Workers:        s.cfg.Workers,
			Busy:           int(s.busy.Load()),
			RetryAfterSecs: s.retryAfterSecs(),
		},
		Tenants:    s.sched.Stats(),
		BuildStore: s.store.Metrics(),
		Exec: ExecMetrics{
			GuestInstret:   instret,
			ExecSecs:       execSecs,
			CheckExecs:     s.checkExecs.Load(),
			CheckHalts:     s.checkHalts.Load(),
			ICacheFills:    s.icacheFills.Load(),
			JITBlocks:      s.jitBlocks.Load(),
			JITCompileSecs: float64(s.jitCompileNanos.Load()) / 1e9,
			JITBlockRuns:   s.jitBlockRuns.Load(),
			JITColdSteps:   s.jitColdSteps.Load(),
		},
	}
	m.Queue.P50Ms, m.Queue.P95Ms, m.Queue.P99Ms = queuePercentiles(obs.SumHists(queue))
	for i := range m.Tenants {
		t := &m.Tenants[i]
		for _, h := range queue {
			if h.Label == t.Tenant {
				t.QueueP50Ms, t.QueueP95Ms, t.QueueP99Ms = queuePercentiles(h.Hist)
			}
		}
	}
	ts := s.tracer.Stats()
	m.Obs = ObsMetrics{
		TraceSampleRate: s.tracer.SampleRate(),
		TracesSampled:   ts.Sampled,
		SpansRecorded:   ts.Spans,
		TracesEvicted:   ts.Evicted,
		TracesRetained:  ts.Retained,
		AuditRecords:    s.audit.Total(),
		AuditSinkErrors: s.audit.SinkErrs(),
	}
	if execSecs > 0 {
		m.Exec.MinstrPerSec = float64(instret) / execSecs / 1e6
	}
	if d := m.Exec.JITBlockRuns + m.Exec.JITColdSteps; d > 0 {
		m.Exec.JITHotRatio = float64(m.Exec.JITBlockRuns) / float64(d)
	}
	return m
}

// --- HTTP surface ---

// Handler returns the service mux. The surface is versioned under
// /v1/ — POST /v1/run, GET /v1/healthz, GET /v1/metrics, GET
// /v1/trace/{id}, GET /v1/audit, and the store protocol at
// /v1/store/{key} (GET/HEAD/PUT of sealed blobs, backed by the disk
// tier).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	mux.HandleFunc("/v1/audit", s.handleAudit)
	mux.Handle("/v1/store/", s.storeHandler())
	return mux
}

// storeHandler serves the store-sharing protocol from the disk tier;
// without one (no -store-dir) there is nothing persistent to share.
// Writes are gated on the shared secret (see Config.StoreSecret):
// without it the surface is read-only, so an open serve port cannot be
// used to publish a hostile artifact under a victim fingerprint.
func (s *Server) storeHandler() http.Handler {
	if s.disk == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "no persistent store configured (start with -store-dir)", http.StatusNotFound)
		})
	}
	return buildstore.Handler(s.disk, s.cfg.StoreSecret)
}

// writeSubmitError maps an admission error onto the HTTP surface,
// attaching Retry-After to backpressure responses so clients know
// when the queue should have drained.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	var req JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	res, err := s.Submit(r.Context(), req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, res)
}

// Health is the /v1/healthz body: enough for a load balancer or a
// dashboard to identify the server without scraping /metrics.
type Health struct {
	Status     string  `json:"status"` // "ok" or "draining"
	Version    string  `json:"version"`
	Engine     string  `json:"engine"` // default execution engine
	Draining   bool    `json:"draining"`
	UptimeSecs float64 `json:"uptime_secs"`
	Workers    int     `json:"workers"`
}

func (s *Server) health() Health {
	h := Health{
		Status:     "ok",
		Version:    Version,
		Engine:     vm.EngineBlockJIT.String(),
		Draining:   s.Draining(),
		UptimeSecs: time.Since(s.start).Seconds(),
		Workers:    s.cfg.Workers,
	}
	if h.Draining {
		h.Status = "draining"
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	w.Header().Set("Content-Type", "application/json")
	if h.Draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(s.renderProm())
		return
	}
	writeJSON(w, s.MetricsSnapshot())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
