package buildstore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mcfi/internal/linker"
)

func TestTieredSingleflightCoalescesBuilds(t *testing.T) {
	ts := NewTiered(NewMem(0), nil)
	k := testKey("coalesce")
	var builds atomic.Int64
	release := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	tiers := make([]Tier, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img, tier, err := ts.GetOrBuild(k, func() (*linker.Image, error) {
				builds.Add(1)
				<-release // hold the build so every waiter piles up
				return testImage(1), nil
			})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			tiers[i] = tier
			sameImage(t, img, testImage(1))
		}(i)
	}
	// Wait until the leader has registered its flight, then release it.
	// (Latecomers that arrive after settle hit the backfilled mem tier,
	// which reports the same TierMem.)
	for {
		ts.mu.Lock()
		inflight := len(ts.inflight)
		ts.mu.Unlock()
		if inflight == 1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
	var built, mem int
	for _, tier := range tiers {
		switch tier {
		case TierBuilt:
			built++
		case TierMem:
			mem++
		}
	}
	if built != 1 || mem != n-1 {
		t.Fatalf("tiers: %d built, %d mem; want 1/%d", built, mem, n-1)
	}
	m := ts.Metrics()
	if m.Builds != 1 || m.Hits != n-1 || m.Misses != 1 {
		t.Errorf("metrics: %+v", m)
	}
}

func TestTieredNegativeCaching(t *testing.T) {
	ts := NewTiered(NewMem(0), nil)
	k := testKey("bad-source")
	boom := errors.New("syntax error")
	calls := 0
	for i := 0; i < 3; i++ {
		_, _, err := ts.GetOrBuild(k, func() (*linker.Image, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing build ran %d times, want 1 (negative cache)", calls)
	}
	if m := ts.Metrics(); m.FailedBuilds != 1 {
		t.Errorf("failed_builds = %d, want 1", m.FailedBuilds)
	}
}

func TestTieredNegativeCacheBounded(t *testing.T) {
	ts := NewTiered(NewMem(0), nil)
	ts.failMax = 4
	for i := 0; i < 10; i++ {
		ts.GetOrBuild(testKey(fmt.Sprintf("bad-%d", i)), func() (*linker.Image, error) {
			return nil, errors.New("nope")
		})
	}
	ts.mu.Lock()
	n := len(ts.failed)
	ts.mu.Unlock()
	if n > 4 {
		t.Fatalf("negative cache grew to %d entries, bound is 4", n)
	}
}

// TestTieredDiskHitBackfillsMem: a warm disk tier serves a fresh
// process's first request (tier "disk"), and the hit is backfilled so
// the second request is a mem hit.
func TestTieredDiskHitBackfillsMem(t *testing.T) {
	dir := t.TempDir()
	k := testKey("warm")

	warm := openTestDisk(t, dir)
	if err := warm.Put(k, testImage(2)); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	ts := NewTiered(NewMem(0), openTestDisk(t, dir))
	defer ts.Close()
	fail := func() (*linker.Image, error) {
		t.Error("build ran despite warm disk store")
		return nil, errors.New("unreachable")
	}
	img, tier, err := ts.GetOrBuild(k, fail)
	if err != nil || tier != TierDisk {
		t.Fatalf("first get: tier=%s err=%v, want disk", tier, err)
	}
	sameImage(t, img, testImage(2))

	img, tier, err = ts.GetOrBuild(k, fail)
	if err != nil || tier != TierMem {
		t.Fatalf("second get: tier=%s err=%v, want mem (backfilled)", tier, err)
	}
	sameImage(t, img, testImage(2))

	m := ts.Metrics()
	if m.Builds != 0 || m.TierHits["disk"] != 1 || m.TierHits["mem"] != 1 {
		t.Errorf("metrics: %+v", m)
	}
}

// TestTieredWriteThroughPersists: a fresh build lands in every tier,
// so a second Tiered over the same directory never rebuilds.
func TestTieredWriteThroughPersists(t *testing.T) {
	dir := t.TempDir()
	k := testKey("writethrough")

	ts1 := NewTiered(NewMem(0), openTestDisk(t, dir))
	_, tier, err := ts1.GetOrBuild(k, func() (*linker.Image, error) { return testImage(4), nil })
	if err != nil || tier != TierBuilt {
		t.Fatalf("cold build: tier=%s err=%v", tier, err)
	}
	ts1.Close()

	ts2 := NewTiered(NewMem(0), openTestDisk(t, dir))
	defer ts2.Close()
	img, tier, err := ts2.GetOrBuild(k, func() (*linker.Image, error) {
		t.Error("rebuilt after restart")
		return nil, errors.New("unreachable")
	})
	if err != nil || tier != TierDisk {
		t.Fatalf("warm get: tier=%s err=%v", tier, err)
	}
	sameImage(t, img, testImage(4))
}

func TestTieredObjectPlane(t *testing.T) {
	dir := t.TempDir()
	k := testKey("libc-object")
	payload := []byte("compiled object bytes")

	ts1 := NewTiered(NewMem(0), openTestDisk(t, dir))
	got, tier, err := ts1.GetOrBuildObject(k, func() ([]byte, error) { return payload, nil })
	if err != nil || tier != TierBuilt || string(got) != string(payload) {
		t.Fatalf("cold object: tier=%s err=%v", tier, err)
	}
	if m := ts1.Metrics(); m.ObjectBuilds != 1 {
		t.Errorf("object_builds = %d, want 1", m.ObjectBuilds)
	}
	ts1.Close()

	ts2 := NewTiered(NewMem(0), openTestDisk(t, dir))
	defer ts2.Close()
	got, tier, err = ts2.GetOrBuildObject(k, func() ([]byte, error) {
		t.Error("object rebuilt despite warm store")
		return nil, errors.New("unreachable")
	})
	if err != nil || tier != TierDisk || string(got) != string(payload) {
		t.Fatalf("warm object: tier=%s err=%v", tier, err)
	}
	if m := ts2.Metrics(); m.ObjectBuilds != 0 {
		t.Errorf("warm object_builds = %d, want 0", m.ObjectBuilds)
	}
}
