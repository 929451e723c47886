package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// DefaultAuditBuffer is the default audit-ring capacity.
const DefaultAuditBuffer = 1024

// AuditRecord is one CFI-violation forensics record: enough context to
// answer who ran what, where the check halted, and which branch target
// the policy refused — the violation forensics the CFI evaluation
// literature treats as a first-class output of an enforcement system.
type AuditRecord struct {
	// Seq is the record's position in the log since process start
	// (monotonic, 1-based); TimeUnixNs timestamps the emit.
	Seq        int64 `json:"seq"`
	TimeUnixNs int64 `json:"time_unix_ns"`
	// Trace links the violation to its job trace (empty if unsampled).
	Trace string `json:"trace,omitempty"`
	// Tenant/Job/Engine identify the execution context;
	// Fingerprint is the content hash of the build that violated.
	Tenant      string `json:"tenant,omitempty"`
	Job         string `json:"job,omitempty"`
	Engine      string `json:"engine,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// PC is the faulting hlt's address; Target the masked branch target
	// the check refused (0 for a direct/raw hlt); Check the template
	// kind: "direct", "indirect", or "plt".
	PC     int64  `json:"pc"`
	Target int64  `json:"target"`
	Check  string `json:"check"`
	Msg    string `json:"msg,omitempty"`
	// Instret is the guest's retired-instruction count at the halt.
	Instret int64 `json:"instret,omitempty"`
}

// AuditLog is a bounded ring of the most recent CFI-violation records,
// optionally teeing every record as one NDJSON line to a sink (the
// -audit-log file). Emitting never fails the caller: sink errors are
// counted, not propagated — a full disk must not change verdicts.
type AuditLog struct {
	mu       sync.Mutex
	ring     []AuditRecord
	start    int // index of oldest record
	n        int // filled entries
	seq      int64
	sink     io.Writer
	sinkErrs int64
}

// NewAuditLog builds a log retaining the last capacity records (<=0 →
// DefaultAuditBuffer). sink, when non-nil, receives every record as a
// newline-terminated JSON object.
func NewAuditLog(capacity int, sink io.Writer) *AuditLog {
	if capacity <= 0 {
		capacity = DefaultAuditBuffer
	}
	return &AuditLog{ring: make([]AuditRecord, capacity), sink: sink}
}

// Emit records one violation, assigning its sequence number and
// timestamp, and returns the stored record.
func (l *AuditLog) Emit(rec AuditRecord) AuditRecord {
	l.mu.Lock()
	l.seq++
	rec.Seq = l.seq
	rec.TimeUnixNs = time.Now().UnixNano()
	if l.n < len(l.ring) {
		l.ring[(l.start+l.n)%len(l.ring)] = rec
		l.n++
	} else {
		l.ring[l.start] = rec
		l.start = (l.start + 1) % len(l.ring)
	}
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		line, err := json.Marshal(rec)
		if err == nil {
			line = append(line, '\n')
			_, err = sink.Write(line)
		}
		if err != nil {
			l.mu.Lock()
			l.sinkErrs++
			l.mu.Unlock()
		}
	}
	return rec
}

// Records returns the retained records, oldest first.
func (l *AuditLog) Records() []AuditRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AuditRecord, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(l.start+i)%len(l.ring)])
	}
	return out
}

// Total reports how many records have ever been emitted (>= len of
// Records once the ring wraps).
func (l *AuditLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SinkErrs reports how many records failed to reach the sink.
func (l *AuditLog) SinkErrs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErrs
}
