package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcfi/internal/workload"
)

// LoadConfig drives a load run against one serving endpoint.
type LoadConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// Concurrency is the number of in-flight requests (default 8).
	Concurrency int
	// Requests is the total jobs to complete (default 3 per workload).
	Requests int
	// Tenants cycles jobs across these tenant names (default: the
	// server-side default tenant).
	Tenants []string
	// Workloads cycles through these benchmark names (default: all 12).
	Workloads []string
	// JobMix assigns relative weights to job kinds ("run", "dlopen",
	// "jitsim"); jobs cycle through a deterministic weighted pattern.
	// Empty or {"run": n} means plain run jobs only. Non-run kinds
	// ignore Workloads (the server synthesizes their guests).
	JobMix map[string]int
	// Work overrides the iteration count; 0 = reference inputs;
	// UseTestWork uses each workload's reduced test scale instead.
	Work        int
	UseTestWork bool
	// Engine/Baseline/MaxInstr/TimeoutMs pass through to every job.
	Engine    string
	Baseline  bool
	MaxInstr  int64
	TimeoutMs int64
	// RetryCap bounds how long a worker sleeps on a server's
	// Retry-After before resubmitting (default 500ms, so short smoke
	// runs are not serialized by the server's 1s clamp floor).
	RetryCap time.Duration
	// Client overrides the HTTP client (default: 5-minute timeout).
	Client *http.Client
}

// TenantLoad is one tenant's slice of a load run, as observed by the
// client.
type TenantLoad struct {
	Tenant   string  `json:"tenant"`
	Jobs     int64   `json:"jobs"`
	Rejected int64   `json:"rejected_429"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// KindLoad is one job kind's slice of a mixed load run, with its own
// latency distribution (a dlopen job and a qsort run have very
// different cost profiles; mixing their percentiles hides both).
type KindLoad struct {
	Kind   string  `json:"kind"`
	Jobs   int64   `json:"jobs"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	// Updates/DeltaPublishes aggregate the update-transaction counters
	// the server reports per job (non-zero for dynamic kinds).
	Updates        int64 `json:"updates,omitempty"`
	DeltaPublishes int64 `json:"delta_publishes,omitempty"`
}

// LoadReport is the serving-throughput snapshot a load run emits
// (the BENCH_*_serving.json schema).
type LoadReport struct {
	Kind        string   `json:"kind"` // "mcfi-serve-load"
	Addr        string   `json:"addr"`
	Concurrency int      `json:"concurrency"`
	Requests    int      `json:"requests"`
	Workloads   []string `json:"workloads,omitempty"`
	Engine      string   `json:"engine"`

	WallSecs     float64 `json:"wall_secs"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	GuestInstret int64   `json:"guest_instret"`
	// MinstrPerSecWall is end-to-end serving throughput: aggregate
	// retired guest instructions over the whole run's wall time
	// (queueing, builds, and cache hits included).
	MinstrPerSecWall float64 `json:"minstr_per_sec_wall"`
	// MinstrPerSecExec is the server's execution-only throughput from
	// its /metrics (instret over summed per-job run time).
	MinstrPerSecExec float64 `json:"minstr_per_sec_exec"`

	CacheHitRate float64 `json:"cache_hit_rate"`
	// StoreTiers counts completed jobs by where their image came from
	// ("mem", "disk", "built") as reported per response.
	StoreTiers map[string]int64 `json:"store_tiers"`
	Rejected   int64            `json:"rejected_429"`
	Statuses   map[string]int64 `json:"statuses"`

	// TenantLoads and KindLoads break the run down by scheduling tenant
	// and job kind.
	TenantLoads []TenantLoad `json:"tenant_loads,omitempty"`
	KindLoads   []KindLoad   `json:"kind_loads,omitempty"`

	// ServerMetrics is the server's final /metrics document.
	ServerMetrics *Metrics `json:"server_metrics,omitempty"`
}

// loadBucket accumulates per-tenant or per-kind observations.
type loadBucket struct {
	jobs     int64
	rejected int64
	updates  int64
	deltas   int64
	latMs    []float64
}

func (b *loadBucket) observe(res *JobResult, latMs float64) {
	b.jobs++
	b.latMs = append(b.latMs, latMs)
	b.updates += res.Updates
	b.deltas += res.DeltaPublishes
}

// meanQuantiles returns the mean and the nearest-rank quantiles of a
// latency sample (zeros when empty).
func meanQuantiles(lats []float64, ps ...float64) (float64, []float64) {
	qs := make([]float64, len(ps))
	if len(lats) == 0 {
		return 0, qs
	}
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	for i, p := range ps {
		k := int(float64(len(sorted))*p+0.5) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(sorted) {
			k = len(sorted) - 1
		}
		qs[i] = sorted[k]
	}
	return sum / float64(len(sorted)), qs
}

// loadRun is the shared mutable state of one RunLoad.
type loadRun struct {
	cfg    LoadConfig
	addr   string
	client *http.Client
	rep    *LoadReport

	// mixPattern is the deterministic weighted kind schedule job i is
	// assigned from (kind = mixPattern[i % len]); empty means all "run".
	mixPattern []string

	mu       sync.Mutex
	firstErr error
	hits     int64
	results  int64
	tenants  map[string]*loadBucket
	kinds    map[string]*loadBucket
}

// RunLoad hammers the endpoint with the configured corpus at the
// configured concurrency until Requests jobs complete, then snapshots
// the server's metrics. Queue-full rejections (HTTP 429) are
// counted and retried after the server's advertised Retry-After
// (capped at RetryCap) — backpressure is an expected, measured
// outcome, not a failure. Any transport-level error aborts the run.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if len(cfg.Workloads) == 0 {
		for _, w := range workload.All() {
			cfg.Workloads = append(cfg.Workloads, w.Name)
		}
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 3 * len(cfg.Workloads)
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 500 * time.Millisecond
	}
	addr := strings.TrimRight(strings.TrimSpace(cfg.BaseURL), "/")
	if addr == "" {
		return nil, fmt.Errorf("load: no server address configured")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}

	mixPattern, err := mixScheduleOf(cfg.JobMix)
	if err != nil {
		return nil, err
	}

	lr := &loadRun{
		cfg: cfg, addr: addr, client: client,
		mixPattern: mixPattern,
		tenants:    map[string]*loadBucket{},
		kinds:      map[string]*loadBucket{},
		rep: &LoadReport{
			Kind:        "mcfi-serve-load",
			Addr:        addr,
			Concurrency: cfg.Concurrency,
			Requests:    cfg.Requests,
			Workloads:   cfg.Workloads,
			Engine:      cfg.Engine,
			Statuses:    map[string]int64{},
			StoreTiers:  map[string]int64{},
		},
	}

	start := time.Now()
	err = lr.run(ctx)
	lr.rep.WallSecs = time.Since(start).Seconds()
	if err != nil {
		return lr.rep, err
	}
	if err := ctx.Err(); err != nil {
		return lr.rep, err
	}
	lr.finish(ctx)
	return lr.rep, nil
}

// mixScheduleOf expands kind weights into the repeating schedule jobs
// cycle through, interleaved by largest remainder so a run=4,dlopen=1
// mix does not submit its dlopens back to back.
func mixScheduleOf(mix map[string]int) ([]string, error) {
	if len(mix) == 0 {
		return nil, nil
	}
	kinds := make([]string, 0, len(mix))
	total := 0
	for k, w := range mix {
		switch k {
		case "run", "dlopen", "jitsim":
		default:
			return nil, fmt.Errorf("load: unknown job kind %q in mix (want run, dlopen, or jitsim)", k)
		}
		if w < 0 {
			return nil, fmt.Errorf("load: negative weight %d for job kind %q", w, k)
		}
		if w > 0 {
			kinds = append(kinds, k)
			total += w
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("load: job mix has no positive weights")
	}
	sort.Strings(kinds)
	pattern := make([]string, 0, total)
	credit := map[string]float64{}
	for len(pattern) < total {
		best, bestCredit := "", 0.0
		for _, k := range kinds {
			credit[k] += float64(mix[k]) / float64(total)
			if credit[k] > bestCredit {
				best, bestCredit = k, credit[k]
			}
		}
		credit[best]--
		pattern = append(pattern, best)
	}
	return pattern, nil
}

func (lr *loadRun) kindOf(n int) string {
	if len(lr.mixPattern) == 0 {
		return "run"
	}
	return lr.mixPattern[n%len(lr.mixPattern)]
}

func (lr *loadRun) tenantOf(n int) string {
	if len(lr.cfg.Tenants) == 0 {
		return ""
	}
	return lr.cfg.Tenants[n%len(lr.cfg.Tenants)]
}

// reqOf builds job i.
func (lr *loadRun) reqOf(i int) JobRequest {
	cfg := lr.cfg
	jr := JobRequest{
		Engine: cfg.Engine, Baseline: cfg.Baseline,
		MaxInstr: cfg.MaxInstr, TimeoutMs: cfg.TimeoutMs,
	}
	if kind := lr.kindOf(i); kind != "run" {
		jr.Kind, jr.Work = kind, cfg.Work
		return jr
	}
	name := cfg.Workloads[i%len(cfg.Workloads)]
	work := cfg.Work
	if cfg.UseTestWork {
		if w, ok := workload.ByName(name); ok {
			work = w.TestWork
		}
	}
	jr.Workload, jr.Work = name, work
	return jr
}

func (lr *loadRun) record(res *JobResult, jr *JobRequest, latMs float64) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.results++
	lr.rep.Statuses[res.Status]++
	lr.rep.GuestInstret += res.Instret
	if res.StoreTier != "" {
		lr.rep.StoreTiers[res.StoreTier]++
	}
	if res.BuildCacheHit {
		lr.hits++
	}
	lr.tenantBucket(jr.Tenant).observe(res, latMs)
	kind := jr.Kind
	if kind == "" {
		kind = "run"
	}
	kb := lr.kinds[kind]
	if kb == nil {
		kb = &loadBucket{}
		lr.kinds[kind] = kb
	}
	kb.observe(res, latMs)
}

// tenantBucket returns a tenant's bucket. Called with lr.mu held.
func (lr *loadRun) tenantBucket(tenant string) *loadBucket {
	if tenant == "" {
		tenant = DefaultTenant
	}
	tb := lr.tenants[tenant]
	if tb == nil {
		tb = &loadBucket{}
		lr.tenants[tenant] = tb
	}
	return tb
}

func (lr *loadRun) countRejected(tenant string) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.rep.Rejected++
	lr.tenantBucket(tenant).rejected++
}

func (lr *loadRun) fail(err error) {
	lr.mu.Lock()
	if lr.firstErr == nil {
		lr.firstErr = err
	}
	lr.mu.Unlock()
}

// run runs Concurrency clients that each POST one job at a time
// and returns the first transport error.
func (lr *loadRun) run(ctx context.Context) error {
	idx := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < lr.cfg.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				jr := lr.reqOf(i)
				jr.Tenant = lr.tenantOf(i)
				t0 := time.Now()
				res, err := lr.postJob(ctx, jr)
				if err != nil {
					lr.fail(err)
					return
				}
				lr.record(res, &jr, ms(time.Since(t0)))
			}
		}()
	}
	for i := 0; i < lr.cfg.Requests; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			i = lr.cfg.Requests
		}
	}
	close(idx)
	wg.Wait()
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.firstErr
}

// retrySleep honors a server-advertised Retry-After (seconds), capped
// by RetryCap, falling back to the given default.
func (lr *loadRun) retrySleep(ctx context.Context, header string, fallback time.Duration) error {
	d := fallback
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > lr.cfg.RetryCap {
		d = lr.cfg.RetryCap
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// postJob POSTs one job, retrying 429s per the server's Retry-After.
func (lr *loadRun) postJob(ctx context.Context, jr JobRequest) (*JobResult, error) {
	body, err := json.Marshal(jr)
	if err != nil {
		return nil, err
	}
	fallback := 5 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, lr.addr+"/v1/run", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := lr.client.Do(req)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var res JobResult
			if err := json.Unmarshal(data, &res); err != nil {
				return nil, fmt.Errorf("bad /run response: %v", err)
			}
			return &res, nil
		case http.StatusTooManyRequests:
			lr.countRejected(jr.Tenant)
			if err := lr.retrySleep(ctx, resp.Header.Get("Retry-After"), fallback); err != nil {
				return nil, err
			}
			if fallback < 200*time.Millisecond {
				fallback *= 2
			}
		default:
			return nil, fmt.Errorf("POST /run: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
	}
}

// finish derives rates and breakdowns and snapshots the server's
// metrics.
func (lr *loadRun) finish(ctx context.Context) {
	rep := lr.rep
	rep.JobsPerSec = float64(lr.results) / rep.WallSecs
	if lr.results > 0 {
		rep.CacheHitRate = float64(lr.hits) / float64(lr.results)
	}
	if rep.WallSecs > 0 {
		rep.MinstrPerSecWall = float64(rep.GuestInstret) / rep.WallSecs / 1e6
	}

	for tn, b := range lr.tenants {
		mean, qs := meanQuantiles(b.latMs, 0.50, 0.95, 0.99)
		rep.TenantLoads = append(rep.TenantLoads, TenantLoad{
			Tenant: tn, Jobs: b.jobs, Rejected: b.rejected,
			MeanMs: mean, P50Ms: qs[0], P95Ms: qs[1], P99Ms: qs[2],
		})
	}
	sort.Slice(rep.TenantLoads, func(i, j int) bool { return rep.TenantLoads[i].Tenant < rep.TenantLoads[j].Tenant })

	// Per-kind breakdown, emitted only for mixed runs — a single-kind
	// run's numbers are the top-level ones.
	if len(lr.cfg.JobMix) > 0 {
		for kind, b := range lr.kinds {
			mean, qs := meanQuantiles(b.latMs, 0.50, 0.95, 0.99)
			rep.KindLoads = append(rep.KindLoads, KindLoad{
				Kind: kind, Jobs: b.jobs,
				MeanMs: mean, P50Ms: qs[0], P95Ms: qs[1], P99Ms: qs[2],
				Updates: b.updates, DeltaPublishes: b.deltas,
			})
		}
		sort.Slice(rep.KindLoads, func(i, j int) bool { return rep.KindLoads[i].Kind < rep.KindLoads[j].Kind })
	}

	if m, err := fetchMetrics(ctx, lr.client, lr.addr); err == nil {
		rep.ServerMetrics = m
		rep.MinstrPerSecExec = m.Exec.MinstrPerSec
	}
}

func fetchMetrics(ctx context.Context, client *http.Client, base string) (*Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Summary renders the report as the human-readable table mcfi-load
// prints.
func (r *LoadReport) Summary() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "serving load: %d jobs, concurrency %d, %d workloads, %.2fs wall\n",
		r.Requests, r.Concurrency, len(r.Workloads), r.WallSecs)
	fmt.Fprintf(&b, "  throughput: %.2f jobs/s, %.2f Minstr/s end-to-end, %.2f Minstr/s exec\n",
		r.JobsPerSec, r.MinstrPerSecWall, r.MinstrPerSecExec)
	fmt.Fprintf(&b, "  build store: %.0f%% hit rate (mem=%d disk=%d built=%d); backpressure: %d rejections retried\n",
		100*r.CacheHitRate, r.StoreTiers["mem"], r.StoreTiers["disk"],
		r.StoreTiers["built"], r.Rejected)
	var keys []string
	for k := range r.Statuses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "  outcomes:")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, r.Statuses[k])
	}
	fmt.Fprintln(&b)
	for _, t := range r.TenantLoads {
		fmt.Fprintf(&b, "  tenant %-12s %5d jobs, %4d rejected, mean %.1fms, p50 %.1fms, p95 %.1fms, p99 %.1fms\n",
			t.Tenant, t.Jobs, t.Rejected, t.MeanMs, t.P50Ms, t.P95Ms, t.P99Ms)
	}
	for _, kl := range r.KindLoads {
		fmt.Fprintf(&b, "  kind   %-12s %5d jobs, mean %.1fms, p50 %.1fms, p95 %.1fms, p99 %.1fms",
			kl.Kind, kl.Jobs, kl.MeanMs, kl.P50Ms, kl.P95Ms, kl.P99Ms)
		if kl.Updates > 0 {
			fmt.Fprintf(&b, ", %d updates (%d delta)", kl.Updates, kl.DeltaPublishes)
		}
		fmt.Fprintln(&b)
	}
	if m := r.ServerMetrics; m != nil {
		fmt.Fprintf(&b, "  server: %d accepted, %d completed, %d CFI violations, %d timeouts, %d checks\n",
			m.Jobs.Accepted, m.Jobs.Completed, m.Jobs.CFIViolations,
			m.Jobs.Timeouts, m.Exec.CheckExecs)
	}
	return b.String()
}
