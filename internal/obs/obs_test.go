package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHistogramBucketsAreCumulative(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	h.Observe(5 * time.Millisecond)   // bucket 0.01
	h.Observe(50 * time.Millisecond)  // bucket 0.1
	h.Observe(500 * time.Millisecond) // bucket 1
	h.Observe(5 * time.Second)        // +Inf
	s := h.Snapshot()
	if got, want := s.Buckets, []int64{1, 2, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	wantSum := 5.555
	if s.SumSecs < wantSum-1e-9 || s.SumSecs > wantSum+1e-9 {
		t.Errorf("sum = %v, want %v", s.SumSecs, wantSum)
	}
	// An observation exactly on a bound lands in that bound's bucket
	// (le is inclusive).
	h2 := NewHistogram([]float64{0.01})
	h2.Observe(10 * time.Millisecond)
	if s2 := h2.Snapshot(); s2.Buckets[0] != 1 {
		t.Errorf("le bound not inclusive: %v", s2.Buckets)
	}
}

// TestHistQuantile: histogram_quantile semantics — linear within the
// bucket holding the rank, the lowest bucket starting at 0, the +Inf
// bucket clamped to the highest finite bound, 0 when empty.
func TestHistQuantile(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	fill := func(samples map[time.Duration]int) HistSnapshot {
		h := NewHistogram([]float64{0.01, 0.1, 1})
		for d, n := range samples {
			for i := 0; i < n; i++ {
				h.Observe(d)
			}
		}
		return h.Snapshot()
	}
	for _, tc := range []struct {
		name    string
		samples map[time.Duration]int
		want    map[float64]time.Duration // p → quantile
	}{
		{"empty", nil, map[float64]time.Duration{0.5: 0, 0.95: 0, 0.99: 0}},
		{"one bucket", map[time.Duration]int{50 * time.Millisecond: 4},
			map[float64]time.Duration{0.5: ms(55), 0.95: ms(95.5), 0.99: ms(99.1)}},
		{"+Inf bucket", map[time.Duration]int{5 * time.Millisecond: 1, 5 * time.Second: 3},
			map[float64]time.Duration{0.25: ms(10), 0.5: time.Second, 0.95: time.Second, 0.99: time.Second}},
		{"spread", map[time.Duration]int{5 * time.Millisecond: 50, 50 * time.Millisecond: 45, 500 * time.Millisecond: 5},
			map[float64]time.Duration{0.5: ms(10), 0.95: ms(100), 0.99: ms(820)}},
	} {
		s := fill(tc.samples)
		for p, want := range tc.want {
			got := s.Quantile(p)
			if d := got - want; d < -time.Microsecond || d > time.Microsecond {
				t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, p, got, want)
			}
		}
	}

	// SumHists folds a family into the histogram of all its samples.
	v := NewHistVec([]float64{0.01, 0.1, 1})
	v.Observe("a", 5*time.Millisecond)
	v.Observe("b", 50*time.Millisecond)
	v.Observe("b", 5*time.Second)
	sum := SumHists(v.Snapshot())
	if fmt.Sprint(sum.Buckets) != "[1 2 2]" || sum.Count != 3 || len(sum.Bounds) != 3 {
		t.Errorf("SumHists = %+v, want buckets [1 2 2], count 3", sum)
	}
}

// validateExposition is the same well-formedness check CI runs against
// /v1/metrics?format=prom: every sample's family has a TYPE line, no
// family appears in two blocks, no NaN/Inf values, histogram buckets
// are cumulative and end in +Inf.
func validateExposition(t *testing.T, text []byte) {
	t.Helper()
	typed := map[string]bool{}
	closed := map[string]bool{} // families whose block has ended
	var last string
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name := parts[2]
			if typed[name] {
				t.Fatalf("duplicate TYPE for %s", name)
			}
			typed[name] = true
			if last != "" && last != name {
				closed[last] = true
			}
			last = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if typed[strings.TrimSuffix(name, suf)] {
				family = strings.TrimSuffix(name, suf)
				break
			}
		}
		if !typed[family] {
			t.Fatalf("sample %q has no TYPE line", name)
		}
		if closed[family] {
			t.Fatalf("family %s reopened after another family's block", family)
		}
		if family != last {
			closed[last] = true
			last = family
		}
		val := line[strings.LastIndex(line, " ")+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if f != f || f > 1e308 || f < -1e308 {
			t.Fatalf("non-finite value in %q", line)
		}
	}
}

func TestPromExpositionWellFormed(t *testing.T) {
	p := NewProm()
	p.Counter("mcfi_jobs_total", "jobs completed", 42)
	p.CounterVec("mcfi_outcomes_total", "by outcome", []Label{{"outcome", "ok"}}, 40)
	p.CounterVec("mcfi_outcomes_total", "by outcome", []Label{{"outcome", "cfi_violation"}}, 2)
	p.Gauge("mcfi_queue_depth", "queued jobs", 3)
	hv := NewHistVec([]float64{0.01, 0.1})
	hv.Observe("alice", 5*time.Millisecond)
	hv.Observe("alice", 50*time.Millisecond)
	hv.Observe("bob\"x\n", 2*time.Second) // hostile label value
	p.Histogram("mcfi_queue_wait_seconds", "queue wait", "tenant", hv.Snapshot())
	out := p.Bytes()
	validateExposition(t, out)

	text := string(out)
	for _, want := range []string{
		"# TYPE mcfi_jobs_total counter",
		"# TYPE mcfi_queue_wait_seconds histogram",
		`mcfi_outcomes_total{outcome="cfi_violation"} 2`,
		`mcfi_queue_wait_seconds_bucket{le="+Inf",tenant="alice"} 2`,
		`tenant="bob\"x\n"`,
		"mcfi_queue_wait_seconds_count{tenant=\"alice\"} 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// A duplicate family keeps one TYPE line.
	if strings.Count(text, "# TYPE mcfi_outcomes_total") != 1 {
		t.Errorf("duplicate TYPE lines:\n%s", text)
	}
}

func TestRecorderSamplingIsDeterministic(t *testing.T) {
	all := NewRecorder(1, 8)
	none := NewRecorder(0, 8)
	half1 := NewRecorder(0.5, 8)
	half2 := NewRecorder(0.5, 8)
	kept := 0
	for i := 0; i < 400; i++ {
		id := Mint()
		if len(id) != 16 {
			t.Fatalf("Mint() = %q, want 16 hex chars", id)
		}
		if !all.Sampled(id) {
			t.Fatalf("sample=1 dropped %s", id)
		}
		if none.Sampled(id) {
			t.Fatalf("sample=0 kept %s", id)
		}
		// The decision is a pure function of (id, rate): what one
		// recorder keeps, every recorder at that rate keeps.
		if half1.Sampled(id) != half2.Sampled(id) {
			t.Fatalf("sampling decision not deterministic for %s", id)
		}
		if half1.Sampled(id) {
			kept++
		}
	}
	if kept < 120 || kept > 280 {
		t.Errorf("sample=0.5 kept %d/400, want roughly half", kept)
	}
	// Unsampled spans are dropped entirely.
	none.Record(Span{Trace: "deadbeefdeadbeef", Name: SpanRun})
	if st := none.Stats(); st.Spans != 0 || st.Retained != 0 {
		t.Errorf("sample=0 recorded spans: %+v", st)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(1, 3)
	ids := []string{"aaaa", "bbbb", "cccc", "dddd"}
	for _, id := range ids {
		r.Record(Span{Trace: id, Name: SpanRun, DurNs: 1})
	}
	if _, ok := r.Get("aaaa"); ok {
		t.Error("oldest trace not evicted")
	}
	for _, id := range ids[1:] {
		if _, ok := r.Get(id); !ok {
			t.Errorf("trace %s missing", id)
		}
	}
	st := r.Stats()
	if st.Retained != 3 || st.Evicted != 1 || st.Sampled != 4 {
		t.Errorf("stats = %+v", st)
	}
	// Spans append in arrival order; the per-trace cap holds.
	for i := 0; i < maxSpansPerTrace+10; i++ {
		r.Record(Span{Trace: "bbbb", Name: SpanQueue})
	}
	tr, _ := r.Get("bbbb")
	if len(tr.Spans) != maxSpansPerTrace {
		t.Errorf("span cap: %d spans, want %d", len(tr.Spans), maxSpansPerTrace)
	}
}

// TestAuditRingWraparound: the ring keeps the newest records in order
// once capacity is exceeded, the total keeps counting, and the NDJSON
// sink sees every record exactly once.
func TestAuditRingWraparound(t *testing.T) {
	var sink bytes.Buffer
	l := NewAuditLog(4, &sink)
	for i := 0; i < 10; i++ {
		l.Emit(AuditRecord{PC: int64(1000 + i), Target: int64(i), Check: "indirect"})
	}
	recs := l.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	for i, r := range recs {
		wantSeq := int64(7 + i)
		if r.Seq != wantSeq || r.PC != 1000+wantSeq-1 {
			t.Errorf("record %d: seq=%d pc=%#x, want seq=%d", i, r.Seq, r.PC, wantSeq)
		}
		if r.TimeUnixNs == 0 {
			t.Errorf("record %d: no timestamp", i)
		}
	}
	if l.Total() != 10 {
		t.Errorf("total = %d, want 10", l.Total())
	}
	// Every emit reached the sink as one parseable NDJSON line.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("sink got %d lines, want 10", len(lines))
	}
	for i, line := range lines {
		var r AuditRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d unparseable: %v", i, err)
		}
		if r.Seq != int64(i+1) {
			t.Errorf("sink line %d: seq=%d", i, r.Seq)
		}
	}
	if l.SinkErrs() != 0 {
		t.Errorf("sink errors: %d", l.SinkErrs())
	}
}
