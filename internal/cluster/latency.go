package cluster

import (
	"sync"
	"time"
)

// RateMeter estimates a recent event rate (job completions per
// second) from a ring of event timestamps. It powers Retry-After:
// 429 responses advertise roughly how long the queue needs to drain.
type RateMeter struct {
	mu      sync.Mutex
	times   []time.Time
	idx, n  int
	horizon time.Duration
}

// NewRateMeter retains up to size events (<=0 → 512) and rates them
// over the trailing horizon (<=0 → 10s).
func NewRateMeter(size int, horizon time.Duration) *RateMeter {
	if size <= 0 {
		size = 512
	}
	if horizon <= 0 {
		horizon = 10 * time.Second
	}
	return &RateMeter{times: make([]time.Time, size), horizon: horizon}
}

// Observe records one event.
func (r *RateMeter) Observe(t time.Time) {
	r.mu.Lock()
	r.times[r.idx] = t
	r.idx = (r.idx + 1) % len(r.times)
	if r.n < len(r.times) {
		r.n++
	}
	r.mu.Unlock()
}

// PerSec reports events per second over the trailing horizon
// (0 when nothing recent happened).
func (r *RateMeter) PerSec(now time.Time) float64 {
	cutoff := now.Add(-r.horizon)
	r.mu.Lock()
	var c int
	for i := 0; i < r.n; i++ {
		if r.times[i].After(cutoff) {
			c++
		}
	}
	r.mu.Unlock()
	if c == 0 {
		return 0
	}
	return float64(c) / r.horizon.Seconds()
}
