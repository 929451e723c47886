package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcfi/internal/buildstore"
)

const spinSrc = `
int main(void) {
	while (1) {}
	return 0;
}`

// smashSrc is the attackdemo payload: a stack write redirects a return
// to an address-taken function, which MCFI's return check must halt.
const smashSrc = `
int pwned = 0;
void evil(void) { pwned = 1; puts("evil ran"); }
void (*keep)(void) = evil;

long victim(long target) {
	long x = 0;
	long *p = &x;
	p[2] = target;
	return x;
}
int main(void) {
	victim((long)evil);
	return pwned;
}`

const helloSrc = `
int main(void) {
	puts("hello");
	return 0;
}`

func newTest(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postRun(t *testing.T, url string, jr JobRequest) (*JobResult, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(jr)
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return &res, resp
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
}

// TestBuildCacheSingleflight: N concurrent identical jobs share ONE
// compile — the content-addressed cache coalesces in-flight builds.
func TestBuildCacheSingleflight(t *testing.T) {
	s := newTest(t, Config{Workers: 8, QueueDepth: 32})
	defer drain(t, s)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]JobResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(context.Background(),
				JobRequest{Source: helloSrc, Name: "hello"})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if results[i].Status != StatusOK || results[i].Output != "hello\n" {
			t.Fatalf("job %d: %+v", i, results[i])
		}
	}
	st := s.Store().Metrics()
	if st.Builds != 1 {
		t.Errorf("builds = %d, want exactly 1 (singleflight)", st.Builds)
	}
	if st.Hits != n-1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, n-1)
	}
	if mem := st.TierHits["mem"]; mem != n-1 {
		t.Errorf("mem tier hits = %d, want %d", mem, n-1)
	}
}

// TestCFIViolationIsStructuredAndIsolated: a violating job yields a
// first-class violation verdict (not a 500, not a poisoned worker),
// and the same worker then serves a clean job.
func TestCFIViolationIsStructuredAndIsolated(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 4})
	defer drain(t, s)

	res, err := s.Submit(context.Background(), JobRequest{Source: smashSrc, Name: "smash"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCFI {
		t.Fatalf("status = %q, want %q (result: %+v)", res.Status, StatusCFI, res)
	}
	if res.Fault == nil || res.Fault.Kind != "CFI violation" {
		t.Fatalf("fault info missing or wrong: %+v", res.Fault)
	}
	if res.Output != "" {
		t.Fatalf("MCFI let evil() run before halting: %q", res.Output)
	}
	// Baseline flavor of the same attack IS hijacked: evil() runs (the
	// crash afterwards on the smashed stack is not a CFI verdict) —
	// the verdict difference is the whole point.
	res, err = s.Submit(context.Background(), JobRequest{Source: smashSrc, Name: "smash", Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusCFI || !strings.Contains(res.Output, "evil ran") {
		t.Fatalf("baseline smash not hijacked: %+v", res)
	}
	// The single worker is still healthy.
	res, err = s.Submit(context.Background(), JobRequest{Source: helloSrc, Name: "hello"})
	if err != nil || res.Status != StatusOK {
		t.Fatalf("server poisoned after violation: res=%+v err=%v", res, err)
	}
	m := s.MetricsSnapshot()
	if m.Jobs.CFIViolations != 1 || m.Exec.CheckHalts < 1 {
		t.Errorf("violation not counted: %+v", m.Jobs)
	}
}

// TestTimeoutCancellationFreesWorker: a wall-clock timeout interrupts
// a spinning guest and the worker immediately serves the next job.
func TestTimeoutCancellationFreesWorker(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 4})
	defer drain(t, s)

	res, err := s.Submit(context.Background(),
		JobRequest{Source: spinSrc, Name: "spin", TimeoutMs: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusTimeout {
		t.Fatalf("status = %q, want %q", res.Status, StatusTimeout)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = s.Submit(context.Background(), JobRequest{Source: helloSrc, Name: "hello"})
	}()
	select {
	case <-done:
		if err != nil || res.Status != StatusOK {
			t.Fatalf("post-timeout job: res=%+v err=%v", res, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker not freed after timeout")
	}
	if m := s.MetricsSnapshot(); m.Jobs.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", m.Jobs.Timeouts)
	}
}

// TestBudgetExhaustionIsDistinguishable: instruction budgets yield
// their own verdict, distinct from timeouts and violations.
func TestBudgetExhaustionIsDistinguishable(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 4})
	defer drain(t, s)
	res, err := s.Submit(context.Background(),
		JobRequest{Source: spinSrc, Name: "spin", MaxInstr: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBudget {
		t.Fatalf("status = %q, want %q (%+v)", res.Status, StatusBudget, res)
	}
	if res.Instret < 50_000 {
		t.Errorf("instret = %d, want >= budget", res.Instret)
	}
}

// TestQueueBackpressure: when every worker is busy and the queue is
// full, admission fails fast with ErrBusy instead of queueing
// unboundedly.
func TestQueueBackpressure(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 1})
	defer drain(t, s)

	// Job A occupies the worker; job B fills the one queue slot. B is
	// submitted only once A runs: until the worker parks in the
	// scheduler, admission has no room for a second job.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(),
				JobRequest{Source: spinSrc, Name: "spin", TimeoutMs: 1000})
		}()
	}
	waitFor := func(what string, cond func(Metrics) bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond(s.MetricsSnapshot()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, s.MetricsSnapshot().Queue)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	submit(0)
	waitFor("job A to run", func(m Metrics) bool { return m.Queue.Busy == 1 })
	submit(1)
	waitFor("job B to queue", func(m Metrics) bool { return m.Queue.Depth == 1 })
	_, err := s.Submit(context.Background(), JobRequest{Source: helloSrc})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow submit = %v, want ErrBusy", err)
	}
	if m := s.MetricsSnapshot(); m.Jobs.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", m.Jobs.Rejected)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("background submit %d = %v, want nil", i, err)
		}
	}
}

// TestDrainFinishesQueuedJobs: Drain stops admission but completes
// everything already admitted.
func TestDrainFinishesQueuedJobs(t *testing.T) {
	s := newTest(t, Config{Workers: 2, QueueDepth: 8})
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]JobResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(context.Background(),
				JobRequest{Source: helloSrc, Name: "hello"})
		}(i)
	}
	// Wait for all four to be admitted before draining.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && s.MetricsSnapshot().Jobs.Accepted < n {
		time.Sleep(2 * time.Millisecond)
	}
	drain(t, s)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i].Status != StatusOK {
			t.Errorf("job %d after drain: res=%+v err=%v", i, results[i], errs[i])
		}
	}
	if _, err := s.Submit(context.Background(), JobRequest{Source: helloSrc}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit during drain = %v, want ErrDraining", err)
	}
}

// TestDrainDeadlineCancelsInflight: when the grace period expires,
// in-flight guests are force-cancelled rather than blocking shutdown.
func TestDrainDeadlineCancelsInflight(t *testing.T) {
	s := newTest(t, Config{Workers: 2, QueueDepth: 4})
	var wg sync.WaitGroup
	results := make([]JobResult, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Spin with a long timeout: only force-cancel stops it.
			results[i], _ = s.Submit(context.Background(),
				JobRequest{Source: spinSrc, Name: "spin", TimeoutMs: 60_000})
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && s.MetricsSnapshot().Queue.Busy < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Drain(ctx)
	if el := time.Since(start); el > 20*time.Second {
		t.Fatalf("drain took %v despite force deadline", el)
	}
	wg.Wait()
	for i, r := range results {
		if r.Status != StatusCancelled {
			t.Errorf("job %d: status %q, want %q", i, r.Status, StatusCancelled)
		}
	}
}

// TestLoadMixedWorkloads is the end-to-end serving benchmark in
// miniature (the acceptance scenario): mcfi-load's driver at
// concurrency 8 over all 12 workloads against a real HTTP server,
// with repeated jobs hitting the build cache and zero goroutines
// leaked after drain.
func TestLoadMixedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-workload serving run")
	}
	before := runtime.NumGoroutine()

	s := newTest(t, Config{Workers: 4, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())

	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:     ts.URL,
		Concurrency: 8,
		Requests:    36, // 3 × 12 workloads → 2/3 cache hit rate
		UseTestWork: true,
		Engine:      "blockjit",
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Statuses[StatusOK]; got != 36 {
		t.Fatalf("ok = %d of 36; statuses: %v", got, rep.Statuses)
	}
	if rep.CacheHitRate <= 0.5 {
		t.Errorf("cache hit rate %.2f, want > 0.5 on repeated jobs", rep.CacheHitRate)
	}
	if rep.GuestInstret <= 0 || rep.MinstrPerSecWall <= 0 {
		t.Errorf("throughput not measured: %+v", rep)
	}
	m := rep.ServerMetrics
	if m == nil {
		t.Fatal("no final server metrics")
	}
	if m.Jobs.Completed != 36 || m.Jobs.Ok != 36 {
		t.Errorf("server counts: %+v", m.Jobs)
	}
	if m.Exec.CheckExecs <= 0 {
		t.Errorf("fused check counters not exported: %+v", m.Exec)
	}

	drain(t, s)
	ts.Close()
	ts.Client().CloseIdleConnections()

	// Zero leaked goroutines: everything the run spawned (workers,
	// watchers, guest threads, HTTP conns) must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestDynamicJobKinds: the dlopen and jitsim job kinds run end to end
// — the server synthesizes the guest, compiles and registers the
// plugin modules, and the result reports the update-transaction
// counters (a dlopen job must have taken the delta publication path).
func TestDynamicJobKinds(t *testing.T) {
	s := newTest(t, Config{Workers: 2, QueueDepth: 8})
	defer drain(t, s)

	res, err := s.Submit(context.Background(), JobRequest{Kind: "dlopen", Work: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("dlopen job: %+v", res)
	}
	if res.Updates < 4 {
		t.Errorf("dlopen job ran %d update transactions, want >= 4", res.Updates)
	}
	if res.DeltaPublishes < 4 {
		t.Errorf("dlopen job published %d deltas, want >= 4 (one per module)", res.DeltaPublishes)
	}

	res, err = s.Submit(context.Background(), JobRequest{Kind: "jitsim"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("jitsim job: %+v", res)
	}
	if res.Updates == 0 || res.DeltaPublishes == 0 {
		t.Errorf("jitsim job reported no update activity: %+v", res)
	}

	// A dynamic kind with an explicit source is a contradiction, and an
	// unknown kind is a 400-class error, not a crash.
	if res, err = s.Submit(context.Background(), JobRequest{Kind: "dlopen", Source: helloSrc}); err == nil && res.Status == StatusOK {
		t.Errorf("kind+source accepted: %+v", res)
	}
	if res, err = s.Submit(context.Background(), JobRequest{Kind: "nope"}); err == nil && res.Status == StatusOK {
		t.Errorf("unknown kind accepted: %+v", res)
	}
}

// TestLoadJobMix: a weighted run/dlopen/jitsim mix through the load
// generator completes, honors the weights, and reports per-kind
// latency percentiles plus the dynamic kinds' update counters.
func TestLoadJobMix(t *testing.T) {
	s := newTest(t, Config{Workers: 4, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		drain(t, s)
		ts.Close()
	}()

	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:     ts.URL,
		Concurrency: 4,
		Requests:    18,
		Workloads:   []string{"bzip2", "mcf"},
		UseTestWork: true,
		JobMix:      map[string]int{"run": 4, "dlopen": 1, "jitsim": 1},
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Statuses[StatusOK]; got != 18 {
		t.Fatalf("ok = %d of 18; statuses: %v", got, rep.Statuses)
	}
	byKind := map[string]KindLoad{}
	for _, kl := range rep.KindLoads {
		byKind[kl.Kind] = kl
	}
	// 18 jobs over a 4:1:1 pattern of length 6 = 3 full cycles.
	if byKind["run"].Jobs != 12 || byKind["dlopen"].Jobs != 3 || byKind["jitsim"].Jobs != 3 {
		t.Fatalf("kind split: %+v", rep.KindLoads)
	}
	for _, kind := range []string{"dlopen", "jitsim"} {
		kl := byKind[kind]
		if kl.P50Ms <= 0 || kl.P99Ms < kl.P50Ms {
			t.Errorf("%s percentiles malformed: %+v", kind, kl)
		}
		if kl.Updates == 0 || kl.DeltaPublishes == 0 {
			t.Errorf("%s jobs reported no update transactions: %+v", kind, kl)
		}
	}
	// Plain run jobs carry only the initial policy publication (one
	// full update transaction each) and no deltas.
	if rk := byKind["run"]; rk.DeltaPublishes != 0 || rk.Updates > rk.Jobs {
		t.Errorf("plain run jobs reported dlopen activity: %+v", rk)
	}

	// An invalid kind in the mix fails fast, before any request.
	if _, err := RunLoad(context.Background(), LoadConfig{
		BaseURL: ts.URL, Requests: 1,
		JobMix: map[string]int{"bogus": 1},
		Client: ts.Client(),
	}); err == nil {
		t.Error("bogus job kind accepted by RunLoad")
	}
}

// TestRetryAfterHeader: 429s carry the fixed Retry-After: 1.
func TestRetryAfterHeader(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 5 * time.Second})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the worker and fill the queue.
	started := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			s.Submit(context.Background(), JobRequest{Source: spinSrc, Name: "spin", TimeoutMs: 1500})
		}()
	}
	<-started
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for s.MetricsSnapshot().Queue.Busy == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for s.MetricsSnapshot().Queue.Depth == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	res, resp := postRun(t, ts.URL, JobRequest{Source: helloSrc, Name: "h"})
	if res != nil {
		t.Fatalf("expected 429, got result %+v", res)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want 1", ra)
	}
	wg.Wait()
}

// TestStoreEndpointRemoved: the build store has no HTTP surface. After
// a job has published its artifacts to a StoreDir-backed server, GET,
// HEAD and PUT on /v1/store/{key} for a stored key all get 404, so no
// client can read the store or publish an image into it.
func TestStoreEndpointRemoved(t *testing.T) {
	dir := t.TempDir()
	s := newTest(t, Config{Workers: 1, QueueDepth: 4, StoreDir: dir})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if res, resp := postRun(t, ts.URL, JobRequest{Source: helloSrc, Name: "hello"}); res == nil || res.Status != StatusOK {
		t.Fatalf("job: %+v (HTTP %s)", res, resp.Status)
	}
	files, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var path string
	for _, f := range files {
		if buildstore.ValidKey(filepath.Base(f)) {
			path = f
			break
		}
	}
	if path == "" {
		t.Fatalf("job published nothing to the disk tier (files: %v)", files)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/store/" + filepath.Base(path)
	for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPut} {
		req, err := http.NewRequest(method, url, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s /v1/store/{key} = %s, want 404", method, resp.Status)
		}
	}
}

// TestQueuePercentilesExported: /metrics exposes p50/p95/p99 queue
// latency, read from the queue-wait histogram.
func TestQueuePercentilesExported(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 16})
	defer drain(t, s)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit(context.Background(), JobRequest{Source: helloSrc, Name: "h"})
		}()
	}
	wg.Wait()

	q := s.MetricsSnapshot().Queue
	if q.P50Ms > q.P95Ms || q.P95Ms > q.P99Ms {
		t.Errorf("percentiles not monotone: p50=%.3f p95=%.3f p99=%.3f", q.P50Ms, q.P95Ms, q.P99Ms)
	}
	// 8 jobs through 1 worker: the slowest waiters queued behind real
	// builds, so the upper tail must be nonzero.
	if q.P99Ms <= 0 {
		t.Errorf("p99 = %.3f after contended run, want > 0", q.P99Ms)
	}
}

// TestSubmitDrainRaceTenants: 64 concurrent submitters across 4
// tenants race Drain;
// no job is both refused and executed, and per-tenant counters
// balance. Run under -race in CI.
func TestSubmitDrainRaceTenants(t *testing.T) {
	const submitters = 64
	s := newTest(t, Config{Workers: 4, QueueDepth: submitters})

	var executed, refused, otherErr atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < submitters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := s.Submit(context.Background(), JobRequest{
					Source: helloSrc, Name: "h",
					Tenant: fmt.Sprintf("t%d", (p+i)%4),
				})
				switch {
				case err == nil:
					if res.Status == "" {
						t.Error("admitted job returned no result")
					}
					executed.Add(1)
				case errors.Is(err, ErrDraining), errors.Is(err, ErrBusy):
					refused.Add(1)
				default:
					otherErr.Add(1)
					t.Errorf("submit: %v", err)
				}
			}
		}(p)
	}
	time.Sleep(20 * time.Millisecond)
	drain(t, s)
	wg.Wait()

	total := int64(submitters * 4)
	if executed.Load()+refused.Load()+otherErr.Load() != total {
		t.Errorf("executed %d + refused %d != %d", executed.Load(), refused.Load(), total)
	}
	m := s.MetricsSnapshot()
	if m.Jobs.Accepted != executed.Load() {
		t.Errorf("server accepted %d, clients saw %d results (refused-and-executed or lost job)",
			m.Jobs.Accepted, executed.Load())
	}
	if m.Jobs.Completed != m.Jobs.Accepted {
		t.Errorf("accepted %d != completed %d after drain", m.Jobs.Accepted, m.Jobs.Completed)
	}
	for _, ts := range m.Tenants {
		if ts.Queued != 0 || ts.Running != 0 {
			t.Errorf("tenant %s not drained: %+v", ts.Tenant, ts)
		}
		if ts.Submitted != ts.Dequeued || ts.Dequeued != ts.Completed {
			t.Errorf("tenant %s counters unbalanced: %+v", ts.Tenant, ts)
		}
	}
}

// TestTraceIDsAreServerMinted: a trace holds only what this server
// observed. No client can push spans into the ring (which would let
// four posts evict a real job's trace from a 4-trace ring), and no
// request header can choose a job's trace ID or mark it as relayed.
func TestTraceIDsAreServerMinted(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 4, TraceBuffer: 4})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spans := `[{"trace":"forged","name":"run","dur_ns":1}]`
	resp, err := http.Post(ts.URL+"/v1/trace/forged", "application/json", strings.NewReader(spans))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/trace/forged = %s, want 405", resp.Status)
	}
	if st := s.Tracer().Stats(); st.Sampled != 0 || st.Spans != 0 {
		t.Errorf("span push recorded something: %+v", st)
	}

	body, _ := json.Marshal(JobRequest{Source: helloSrc, Name: "hello"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	req.Header.Set("X-Mcfi-Routed", "1")
	req.Header.Set("X-Mcfi-Trace", "chosen")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if raw["status"] != StatusOK {
		t.Fatalf("job = %v", raw)
	}
	if id, _ := raw["trace_id"].(string); id == "" || id == "chosen" {
		t.Errorf("trace_id = %q, want a freshly minted ID", id)
	}
	if _, ok := raw["proxied"]; ok {
		t.Errorf("result carries a proxied key: %v", raw)
	}
}
