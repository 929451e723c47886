package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRoundRobinRotation: with three tenants backlogged, service
// strictly rotates a, b, c, a, b, c, ... until the queues drain.
func TestRoundRobinRotation(t *testing.T) {
	s := NewSched[string](SchedConfig{TotalQueue: 4096})
	tenants := []string{"a", "b", "c"}
	for i := 0; i < 100; i++ {
		for _, tn := range tenants {
			if err := s.Submit(tn, tn); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 300; i++ {
		v, ok := s.Next()
		if !ok {
			t.Fatal("scheduler empty early")
		}
		s.Done(v)
		if want := tenants[i%3]; v != want {
			t.Fatalf("pop %d served %q, want %q (strict rotation)", i, v, want)
		}
	}
	if q := s.Queued(); q != 0 {
		t.Errorf("queued = %d after 300 pops, want 0", q)
	}
}

// TestDWRRNoStarvation: a tenant behind another tenant's 1,000 queued
// jobs is served within one rotation, i.e. within 2 pops.
func TestDWRRNoStarvation(t *testing.T) {
	s := NewSched[string](SchedConfig{TotalQueue: 4096})
	for i := 0; i < 1000; i++ {
		s.Submit("big", "big")
	}
	s.Submit("small", "small")
	for i := 0; i < 2; i++ {
		v, ok := s.Next()
		if !ok {
			t.Fatal("empty early")
		}
		s.Done(v)
		if v == "small" {
			return // served within one rotation
		}
	}
	t.Error("tenant starved for a full rotation behind a 1,000-job backlog")
}

// TestSubmitVsCloseRace is the scheduler-level half of the
// refused-xor-executed invariant: 64 submitters across 4 tenants race
// Close while consumers drain. Every job is either refused at Submit
// or dequeued exactly once — never both, never neither — and the
// per-tenant counters balance. Run under -race in CI.
func TestSubmitVsCloseRace(t *testing.T) {
	const (
		submitters   = 64
		perSubmitter = 20
		tenants      = 4
	)
	s := NewSched[int](SchedConfig{TotalQueue: submitters * perSubmitter})

	var admitted, refused atomic.Int64
	var dequeued atomic.Int64
	seen := make([]atomic.Int32, submitters*perSubmitter)

	var consumers sync.WaitGroup
	for c := 0; c < 8; c++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				v, ok := s.Next()
				if !ok {
					return
				}
				seen[v].Add(1)
				dequeued.Add(1)
				s.Done(fmt.Sprintf("t%d", v%tenants))
			}
		}()
	}

	var producers sync.WaitGroup
	for p := 0; p < submitters; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
			for i := 0; i < perSubmitter; i++ {
				id := p*perSubmitter + i
				err := s.Submit(fmt.Sprintf("t%d", id%tenants), id)
				switch {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, ErrClosed):
					refused.Add(1)
				default:
					t.Errorf("submit %d: %v", id, err)
				}
			}
		}(p)
	}

	time.Sleep(2 * time.Millisecond)
	s.Close()
	producers.Wait()
	consumers.Wait()

	if admitted.Load()+refused.Load() != submitters*perSubmitter {
		t.Errorf("admitted %d + refused %d != %d",
			admitted.Load(), refused.Load(), submitters*perSubmitter)
	}
	if dequeued.Load() != admitted.Load() {
		t.Errorf("dequeued %d != admitted %d (job lost or duplicated)",
			dequeued.Load(), admitted.Load())
	}
	for id := range seen {
		if n := seen[id].Load(); n > 1 {
			t.Errorf("job %d executed %d times", id, n)
		}
	}
	var sub, deq, comp, ref int64
	for _, ts := range s.Stats() {
		if ts.Queued != 0 || ts.Running != 0 {
			t.Errorf("tenant %s not drained: %+v", ts.Tenant, ts)
		}
		if ts.Dequeued != ts.Completed || ts.Submitted != ts.Dequeued {
			t.Errorf("tenant %s counters unbalanced: %+v", ts.Tenant, ts)
		}
		sub += ts.Submitted
		deq += ts.Dequeued
		comp += ts.Completed
		ref += ts.Refused
	}
	// ErrClosed rejections are the caller's to count (the server maps
	// them to 503s); the scheduler's refused counter tracks queue-full
	// refusals, of which this run has none.
	if sub != admitted.Load() || deq != admitted.Load() || comp != admitted.Load() || ref != 0 {
		t.Errorf("aggregate counters: submitted=%d dequeued=%d completed=%d refused=%d, want %d/%d/%d/0",
			sub, deq, comp, ref, admitted.Load(), admitted.Load(), admitted.Load())
	}
}
