package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcfi/internal/mrt"
	"mcfi/internal/obs"
	"mcfi/internal/toolchain"
	"mcfi/internal/vm"
)

// hijackSrc is the SNIPPETS step-1 attack: a function pointer of one
// signature is overwritten (via a cast) with a function of another
// signature. MCFI's indirect-call check must halt the transfer — the
// equivalence classes differ — so the verdict is a CFI violation with
// check kind "indirect".
const hijackSrc = `
int execve_like(char *path, char **argv) {
	puts("  !! spawning a shell (execve reached)");
	return 0;
}
int (*libc_ref)(char *, char **) = execve_like;
void (*handler)(void);
int main(void) {
	handler = (void (*)(void))execve_like;
	handler();
	return 0;
}`

func getTrace(t *testing.T, base, id string) (obs.Trace, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr obs.Trace
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
	}
	return tr, resp.StatusCode
}

func spanByName(tr obs.Trace, name string) *obs.Span {
	for i := range tr.Spans {
		if tr.Spans[i].Name == name {
			return &tr.Spans[i]
		}
	}
	return nil
}

// TestTraceSpansEndToEnd: a sampled job's result names a trace whose
// span set covers every phase with non-zero durations, and the phase
// summary on the result agrees with the span taxonomy.
func TestTraceSpansEndToEnd(t *testing.T) {
	s := newTest(t, Config{Workers: 2, QueueDepth: 8})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, _ := postRun(t, ts.URL, JobRequest{Source: helloSrc, Name: "hello"})
	if res == nil || res.Status != StatusOK {
		t.Fatalf("job failed: %+v", res)
	}
	if res.TraceID == "" {
		t.Fatal("sampled job returned no trace ID")
	}
	if res.Phases == nil {
		t.Fatal("job result has no phase summary")
	}
	if res.Phases.RunMs <= 0 {
		t.Errorf("phase summary run_ms = %v, want > 0", res.Phases.RunMs)
	}

	tr, code := getTrace(t, ts.URL, res.TraceID)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s = %d", res.TraceID, code)
	}
	if tr.ID != res.TraceID {
		t.Errorf("trace id = %q, want %q", tr.ID, res.TraceID)
	}
	for _, name := range []string{obs.SpanAdmission, obs.SpanQueue, obs.SpanBuild, obs.SpanRun} {
		sp := spanByName(tr, name)
		if sp == nil {
			t.Errorf("trace missing %q span (have %d spans)", name, len(tr.Spans))
			continue
		}
		if sp.DurNs <= 0 {
			t.Errorf("%q span duration = %dns, want > 0", name, sp.DurNs)
		}
		if sp.Trace != res.TraceID {
			t.Errorf("%q span trace = %q, want %q", name, sp.Trace, res.TraceID)
		}
	}
	// A cold build compiles and links from source: the build span must
	// carry the sub-phase spans, and the run span the engine verdict.
	if sp := spanByName(tr, obs.SpanCompile); sp == nil || sp.DurNs <= 0 {
		t.Errorf("cold build missing compile span: %+v", sp)
	}
	if sp := spanByName(tr, obs.SpanLink); sp == nil || sp.DurNs <= 0 {
		t.Errorf("cold build missing link span: %+v", sp)
	}
	if sp := spanByName(tr, obs.SpanRun); sp != nil {
		if sp.Attrs["status"] != StatusOK || sp.Attrs["engine"] == "" {
			t.Errorf("run span attrs = %v", sp.Attrs)
		}
	}

	st := s.Tracer().Stats()
	if st.Sampled == 0 || st.Spans == 0 || st.Retained == 0 {
		t.Errorf("recorder stats = %+v, want all non-zero", st)
	}
}

// TestTraceSamplingOff: -trace-sample=0 (Config.TraceSample < 0) turns
// tracing off — no trace ID on results, nothing retrievable.
func TestTraceSamplingOff(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 4, TraceSample: -1})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, _ := postRun(t, ts.URL, JobRequest{Source: helloSrc, Name: "hello"})
	if res == nil || res.Status != StatusOK {
		t.Fatalf("job failed: %+v", res)
	}
	if res.TraceID != "" {
		t.Errorf("unsampled job returned trace ID %q", res.TraceID)
	}
	if _, code := getTrace(t, ts.URL, "deadbeefdeadbeef"); code != http.StatusNotFound {
		t.Errorf("GET on unsampled server = %d, want 404", code)
	}
	if st := s.Tracer().Stats(); st.Spans != 0 {
		t.Errorf("recorder holds %d spans with sampling off", st.Spans)
	}
}

// TestAuditMatchesDirectVerdict is the satellite requirement: the
// step-1 same-signature hijack driven through the server produces an
// audit record whose faulting PC and check kind match the fault a
// direct (no server) run of the same build reports.
func TestAuditMatchesDirectVerdict(t *testing.T) {
	// Direct run: same builder flavor as the server's (instrumented,
	// Profile64), same default engine.
	b := toolchain.New(toolchain.WithInstrumentation())
	src := toolchain.Source{Name: "hijack", Text: hijackSrc}
	img, err := b.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := mrt.New(img, mrt.Options{Engine: vm.EngineBlockJIT})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := rt.Run(10_000_000)
	var direct *vm.Fault
	if !errors.As(runErr, &direct) || direct.Kind != vm.FaultCFI {
		t.Fatalf("direct run fault = %v, want CFI", runErr)
	}
	if direct.Check != vm.CheckIndirect {
		t.Fatalf("direct fault check = %v, want indirect", direct.Check)
	}

	// Every engine agrees on the verdict coordinates.
	for _, eng := range vm.Engines() {
		rt, err := mrt.New(img, mrt.Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := rt.Run(10_000_000)
		var f *vm.Fault
		if !errors.As(runErr, &f) || f.Kind != vm.FaultCFI {
			t.Fatalf("%s: fault = %v, want CFI", eng, runErr)
		}
		if f.PC != direct.PC || f.Check != direct.Check || f.Target != direct.Target {
			t.Errorf("%s: fault (pc=%#x check=%v target=%#x), want (pc=%#x check=%v target=%#x)",
				eng, f.PC, f.Check, f.Target, direct.PC, direct.Check, direct.Target)
		}
	}

	// Server run with an NDJSON sink attached.
	var sink bytes.Buffer
	s := newTest(t, Config{Workers: 1, QueueDepth: 4, AuditSink: &sink})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, _ := postRun(t, ts.URL, JobRequest{Source: hijackSrc, Name: "hijack", Tenant: "attacker"})
	if res == nil || res.Status != StatusCFI {
		t.Fatalf("server verdict = %+v, want CFI violation", res)
	}
	if res.Output != "" {
		t.Fatalf("hijacked function ran before the halt: %q", res.Output)
	}

	recs := s.Audit().Records()
	if len(recs) != 1 {
		t.Fatalf("audit records = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.PC != direct.PC {
		t.Errorf("audit PC = %#x, want direct verdict PC %#x", rec.PC, direct.PC)
	}
	if rec.Check != "indirect" {
		t.Errorf("audit check = %q, want %q", rec.Check, "indirect")
	}
	if rec.Target != direct.Target {
		t.Errorf("audit target = %#x, want %#x", rec.Target, direct.Target)
	}
	if rec.Tenant != "attacker" || rec.Job != "hijack" {
		t.Errorf("audit identity = tenant %q job %q", rec.Tenant, rec.Job)
	}
	if rec.Engine != vm.EngineBlockJIT.String() {
		t.Errorf("audit engine = %q", rec.Engine)
	}
	if rec.Fingerprint == "" || rec.Trace != res.TraceID || rec.Seq != 1 {
		t.Errorf("audit record incomplete: %+v", rec)
	}

	// /v1/audit serves the same record.
	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page AuditPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || len(page.Records) != 1 || page.Records[0].PC != direct.PC {
		t.Errorf("audit page = total %d, %d records", page.Total, len(page.Records))
	}

	// The sink got one parseable NDJSON line with the same coordinates.
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(sink.Bytes()))
	for sc.Scan() {
		lines++
		var fromSink obs.AuditRecord
		if err := json.Unmarshal(sc.Bytes(), &fromSink); err != nil {
			t.Fatalf("sink line %d not JSON: %v", lines, err)
		}
		if fromSink.PC != direct.PC || fromSink.Check != "indirect" {
			t.Errorf("sink record = %+v", fromSink)
		}
	}
	if lines != 1 {
		t.Errorf("sink lines = %d, want 1", lines)
	}
}

// TestPromExposition: ?format=prom renders the metrics snapshot as
// well-formed Prometheus text from the same counters as the JSON form.
func TestPromExposition(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 4})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if res, _ := postRun(t, ts.URL, JobRequest{Source: helloSrc, Name: "hello"}); res == nil || res.Status != StatusOK {
		t.Fatalf("seed job failed: %+v", res)
	}
	if res, _ := postRun(t, ts.URL, JobRequest{Source: smashSrc, Name: "smash"}); res == nil || res.Status != StatusCFI {
		t.Fatalf("seed violation failed: %+v", res)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()

	types := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Errorf("malformed TYPE line: %q", line)
			continue
		}
		if types[fields[2]] {
			t.Errorf("duplicate TYPE for family %s", fields[2])
		}
		types[fields[2]] = true
	}
	for _, want := range []string{
		`mcfi_jobs_total{outcome="ok"} 1`,
		`mcfi_jobs_total{outcome="cfi_violation"} 1`,
		"mcfi_check_halts_total 1",
		"mcfi_audit_records_total 1",
		`mcfi_run_seconds_bucket{engine="blockjit",le="+Inf"} 2`,
		"mcfi_run_seconds_count",
		"mcfi_queue_wait_seconds_sum",
		`mcfi_build_seconds_bucket{le="+Inf",tier="built"} 2`,
		"mcfi_trace_sample_rate 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(body, "NaN") || strings.Contains(body, "+Inf\n") {
		t.Errorf("exposition contains non-finite values")
	}
}

// TestHealthzBody: /v1/healthz reports identity while up and flips to
// 503 + draining once Drain begins.
func TestHealthzBody(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() (Health, int) {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h, resp.StatusCode
	}

	h, code := get()
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if h.Status != "ok" || h.Version != Version || h.Engine != vm.EngineBlockJIT.String() ||
		h.Draining || h.Workers < 1 {
		t.Errorf("health body = %+v", h)
	}

	drain(t, s)
	h, code = get()
	if code != http.StatusServiceUnavailable || h.Status != "draining" || !h.Draining {
		t.Errorf("post-drain health = %d %+v", code, h)
	}
}
