// Package cluster is the admission layer of the MCFI execution
// service: a per-tenant round-robin scheduler behind one bounded
// queue. The package is deliberately free of HTTP and server types:
// internal/server wires it to the wire.
package cluster

import (
	"errors"
	"sort"
	"sync"
)

// Admission errors: ErrQueueFull is global backpressure (the shared
// queue is exhausted), ErrClosed that the scheduler admits nothing
// more.
var (
	ErrQueueFull = errors.New("cluster: queue full")
	ErrClosed    = errors.New("cluster: scheduler closed")
)

// SchedConfig sizes a scheduler.
type SchedConfig struct {
	// TotalQueue bounds queued jobs across all tenants, beyond those
	// in hand-off to already-parked consumers (default 64).
	TotalQueue int
}

type schedTenant[T any] struct {
	name   string
	fifo   []T
	active bool

	running int

	submitted, refused, dequeued, completed int64
}

// TenantStats is one tenant's scheduler snapshot (exported on
// /metrics by internal/server).
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Submitted int64  `json:"submitted"`
	Refused   int64  `json:"refused"`
	Dequeued  int64  `json:"dequeued"`
	Completed int64  `json:"completed"`
	// Queue-wait percentiles in milliseconds (zero until the first
	// dequeue). The scheduler does not time jobs: internal/server
	// fills these from its queue-wait histogram.
	QueueP50Ms float64 `json:"queue_p50_ms"`
	QueueP95Ms float64 `json:"queue_p95_ms"`
	QueueP99Ms float64 `json:"queue_p99_ms"`
}

// Sched is a round-robin scheduler over per-tenant FIFO queues.
// Producers Submit under a tenant name; consumers Next one item at a
// time. Backlogged tenants take turns, one job each, so a hot tenant's
// backlog puts at most one of its jobs ahead of another tenant's next
// job and never starves it.
//
// Admission enforces the global TotalQueue bound. After Close, Submit
// fails with ErrClosed while Next keeps draining what was already
// admitted — an admitted job is never silently dropped, and a refused
// job was never enqueued, so no job can be both refused and executed.
type Sched[T any] struct {
	mu      sync.Mutex
	cfg     SchedConfig
	tenants map[string]*schedTenant[T]
	active  []*schedTenant[T]
	idx     int
	queued  int
	waiting int // consumers parked in Next
	closed  bool

	wake     chan struct{}
	closedCh chan struct{}
}

// NewSched builds a scheduler.
func NewSched[T any](cfg SchedConfig) *Sched[T] {
	if cfg.TotalQueue <= 0 {
		cfg.TotalQueue = 64
	}
	return &Sched[T]{
		cfg:      cfg,
		tenants:  make(map[string]*schedTenant[T]),
		wake:     make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
}

func (s *Sched[T]) tenant(name string) *schedTenant[T] {
	t, ok := s.tenants[name]
	if !ok {
		t = &schedTenant[T]{name: name}
		s.tenants[name] = t
	}
	return t
}

// admitErr reports why n more jobs cannot be admitted, or nil. Called
// with s.mu held.
func (s *Sched[T]) admitErr(n int) error {
	// The global bound is waiter-aware: a job that an idle, parked
	// consumer will pop the moment it wakes is in hand-off, not truly
	// queued. Without this, two concurrent submits against a depth-1
	// queue with an idle worker race the worker's wakeup and one is
	// spuriously refused (a buffered channel gets this for free; a
	// lock-and-signal queue has to model it).
	if s.queued+n > s.cfg.TotalQueue+s.waiting {
		return ErrQueueFull
	}
	return nil
}

// Submit admits one job for tenant, or refuses it with ErrQueueFull
// (backpressure) or ErrClosed.
func (s *Sched[T]) Submit(tenant string, v T) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	t := s.tenant(tenant)
	if err := s.admitErr(1); err != nil {
		t.refused++
		s.mu.Unlock()
		return err
	}
	t.fifo = append(t.fifo, v)
	t.submitted++
	s.queued++
	if !t.active {
		t.active = true
		s.active = append(s.active, t)
	}
	s.mu.Unlock()
	s.signal()
	return nil
}

func (s *Sched[T]) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pop dequeues the next job: the head of the tenant whose turn it is.
// Called with s.mu held.
func (s *Sched[T]) pop() (T, bool) {
	var zero T
	if len(s.active) == 0 {
		return zero, false
	}
	if s.idx >= len(s.active) {
		s.idx = 0
	}
	t := s.active[s.idx]
	v := t.fifo[0]
	t.fifo = t.fifo[1:]
	t.dequeued++
	t.running++
	s.queued--
	if len(t.fifo) == 0 {
		// Tenant drained: leave the rotation, which puts the next
		// tenant at s.idx.
		t.active = false
		s.active = append(s.active[:s.idx], s.active[s.idx+1:]...)
	} else {
		s.idx++
	}
	return v, true
}

// Next blocks until a job is available and returns it, or returns
// ok=false once the scheduler is closed and drained. The caller must
// pair every successful Next with a Done call for the same tenant.
func (s *Sched[T]) Next() (T, bool) {
	var zero T
	// parked tracks whether this consumer holds a waiting slot. The
	// slot is taken at first park and held until the consumer actually
	// pops (or exits) — a woken-but-not-yet-popped consumer still
	// justifies the admission headroom it advertised.
	parked := false
	for {
		s.mu.Lock()
		v, ok := s.pop()
		more := s.queued > 0
		closed := s.closed
		if ok || closed {
			if parked {
				s.waiting--
				parked = false
			}
		} else if !parked {
			s.waiting++ // about to park: admission may count on us
			parked = true
		}
		s.mu.Unlock()
		if ok {
			if more {
				s.signal() // pass the baton to another waiter
			}
			return v, true
		}
		if closed {
			return zero, false
		}
		select {
		case <-s.wake:
		case <-s.closedCh:
		}
	}
}

// Done marks a dequeued job of tenant complete.
func (s *Sched[T]) Done(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenant(tenant)
	t.running--
	t.completed++
}

// Close stops admission. Already-queued jobs keep flowing through
// Next until the queue is empty. Idempotent.
func (s *Sched[T]) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closedCh)
	}
	s.mu.Unlock()
}

// Queued reports the total queued (not yet running) jobs.
func (s *Sched[T]) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Stats snapshots every tenant ever seen, sorted by name.
func (s *Sched[T]) Stats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStats, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, TenantStats{
			Tenant:    t.name,
			Queued:    len(t.fifo),
			Running:   t.running,
			Submitted: t.submitted,
			Refused:   t.refused,
			Dequeued:  t.dequeued,
			Completed: t.completed,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
