package cluster

import (
	"testing"
	"time"
)

// TestRateMeter: events inside the horizon count, stale ones do not.
func TestRateMeter(t *testing.T) {
	r := NewRateMeter(64, 10*time.Second)
	now := time.Unix(5000, 0)
	if got := r.PerSec(now); got != 0 {
		t.Errorf("empty meter rate = %v", got)
	}
	for i := 0; i < 50; i++ {
		r.Observe(now.Add(time.Duration(-i) * 100 * time.Millisecond))
	}
	got := r.PerSec(now)
	if got < 4.5 || got > 5.5 {
		t.Errorf("rate = %.2f/s, want ~5 (50 events over 10s)", got)
	}
	// An hour later everything is stale.
	if got := r.PerSec(now.Add(time.Hour)); got != 0 {
		t.Errorf("stale rate = %v, want 0", got)
	}
}
