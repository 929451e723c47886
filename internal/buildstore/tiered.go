package buildstore

import (
	"sync"
	"sync/atomic"
	"time"

	"mcfi/internal/linker"
)

// BuildTrace times one GetOrBuild's phases for the job tracer: the
// tier probe, the build itself (zero on a hit), and time spent waiting
// on another request's in-flight build of the same key.
type BuildTrace struct {
	ProbeNs int64
	BuildNs int64
	WaitNs  int64
}

// DefaultFailedEntries bounds the negative cache (deterministic build
// failures remembered so a bad source is not recompiled per request).
const DefaultFailedEntries = 256

// Tiered puts an optional disk tier behind the mem tier and owns the
// cross-cutting policies that neither tier should: build coalescing
// (concurrent requests for one key share one build), negative caching
// (the pipeline is deterministic, so a source that failed once fails
// the same way forever), backfill (a disk hit is copied into mem), and
// write-through (a fresh build is published to both tiers, best-effort —
// a full disk never fails the request).
type Tiered struct {
	mem  *Mem
	disk *Disk // nil: no persistent tier

	mu       sync.Mutex
	inflight map[string]*flight
	failed   map[string]error
	failOrd  []string // FIFO bound on failed
	failMax  int

	hits, misses      atomic.Int64
	memHits, diskHits atomic.Int64
	builds            atomic.Int64
	objectBuilds      atomic.Int64
	failedBuilds      atomic.Int64
	closeOnce         sync.Once
	closeErr          error
}

type flight struct {
	done chan struct{}
	img  *linker.Image
	err  error
}

// NewTiered fronts mem with disk, which may be nil. The disk tier also
// serves the object-blob plane for libc artifacts.
func NewTiered(mem *Mem, disk *Disk) *Tiered {
	return &Tiered{
		mem:      mem,
		disk:     disk,
		inflight: map[string]*flight{},
		failed:   map[string]error{},
		failMax:  DefaultFailedEntries,
	}
}

func (t *Tiered) countHit(tier Tier) {
	t.hits.Add(1)
	if tier == TierDisk {
		t.diskHits.Add(1)
	} else {
		t.memHits.Add(1)
	}
}

// probe checks mem, then disk; a disk hit is backfilled into mem.
// A disk error (ErrNotFound, quarantined corruption, or an I/O fault)
// is a miss.
func (t *Tiered) probe(key string) (*linker.Image, Tier, bool) {
	if img, err := t.mem.Get(key); err == nil {
		return img, TierMem, true
	}
	if t.disk == nil {
		return nil, "", false
	}
	img, err := t.disk.Get(key)
	if err != nil {
		return nil, "", false
	}
	t.mem.Put(key, img)
	return img, TierDisk, true
}

// GetOrBuild returns the image for key, consulting each tier in order
// and falling back to build on a total miss. The returned Tier names
// the source: a cache tier, or TierBuilt for a fresh compile.
// Concurrent callers for one key share a single build (waiters report
// TierMem: they received an in-memory shared result). Build failures
// are cached, so repeat requests for a broken source fail fast.
func (t *Tiered) GetOrBuild(key string, build func() (*linker.Image, error)) (*linker.Image, Tier, error) {
	img, tier, _, err := t.GetOrBuildTraced(key, build)
	return img, tier, err
}

// GetOrBuildTraced is GetOrBuild with per-phase timings for the job
// tracer.
func (t *Tiered) GetOrBuildTraced(key string, build func() (*linker.Image, error)) (*linker.Image, Tier, BuildTrace, error) {
	var bt BuildTrace
	if !ValidKey(key) {
		return nil, "", bt, errBadKey
	}
	t.mu.Lock()
	if err, ok := t.failed[key]; ok {
		t.mu.Unlock()
		t.countHit(TierMem)
		return nil, TierMem, bt, err
	}
	if f, ok := t.inflight[key]; ok {
		t.mu.Unlock()
		wait := time.Now()
		<-f.done
		bt.WaitNs = time.Since(wait).Nanoseconds()
		// Waiters share the leader's in-memory result (or its failure),
		// and count as hits either way, like the old BuildCache.
		t.countHit(TierMem)
		return f.img, TierMem, bt, f.err
	}
	f := &flight{done: make(chan struct{})}
	t.inflight[key] = f
	t.mu.Unlock()

	start := time.Now()
	img, tier, ok := t.probe(key)
	bt.ProbeNs = time.Since(start).Nanoseconds()
	if ok {
		t.countHit(tier)
		t.settle(key, f, img, nil)
		return img, tier, bt, nil
	}

	t.misses.Add(1)
	t.builds.Add(1)
	start = time.Now()
	img, err := build()
	bt.BuildNs = time.Since(start).Nanoseconds()
	if err != nil {
		t.failedBuilds.Add(1)
		t.noteFailed(key, err)
		t.settle(key, f, nil, err)
		return nil, TierBuilt, bt, err
	}
	t.mem.Put(key, img) // best-effort write-through
	if t.disk != nil {
		t.disk.Put(key, img)
	}
	t.settle(key, f, img, nil)
	return img, TierBuilt, bt, nil
}

// settle publishes a flight's result and releases its waiters.
func (t *Tiered) settle(key string, f *flight, img *linker.Image, err error) {
	f.img, f.err = img, err
	t.mu.Lock()
	delete(t.inflight, key)
	t.mu.Unlock()
	close(f.done)
}

// noteFailed records a deterministic build failure, evicting the
// oldest remembered failure when over the bound.
func (t *Tiered) noteFailed(key string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.failed[key]; !ok {
		t.failOrd = append(t.failOrd, key)
		if len(t.failOrd) > t.failMax {
			delete(t.failed, t.failOrd[0])
			t.failOrd = t.failOrd[1:]
		}
	}
	t.failed[key] = err
}

// HasDisk reports whether a disk tier carries the raw-blob plane.
// Without one GetOrBuildObject can never hit, and callers may skip the
// store for object artifacts entirely.
func (t *Tiered) HasDisk() bool { return t.disk != nil }

// GetOrBuildObject is GetOrBuild's raw-blob sibling, used for compiled
// libc objects: it consults the disk tier only — in-process memoization
// of decoded objects is the toolchain LibcCache's job — and publishes a
// fresh build to it. ObjectBuilds counts the total-miss path; a warm
// store keeps it at zero across restarts.
func (t *Tiered) GetOrBuildObject(key string, build func() ([]byte, error)) ([]byte, Tier, error) {
	if !ValidKey(key) {
		return nil, "", errBadKey
	}
	if t.disk != nil {
		if payload, err := t.disk.GetBlob(key); err == nil {
			t.countHit(TierDisk)
			return payload, TierDisk, nil
		}
	}
	t.misses.Add(1)
	t.objectBuilds.Add(1)
	payload, err := build()
	if err != nil {
		return nil, TierBuilt, err
	}
	if t.disk != nil {
		t.disk.PutBlob(key, payload) // best-effort
	}
	return payload, TierBuilt, nil
}

// Metrics is the aggregate view the server exports: totals across the
// composite plus a per-tier breakdown.
type Metrics struct {
	Hits         int64            `json:"hits"`
	Misses       int64            `json:"misses"`
	Builds       int64            `json:"builds"`
	ObjectBuilds int64            `json:"object_builds"`
	FailedBuilds int64            `json:"failed_builds"`
	HitRate      float64          `json:"hit_rate"`
	TierHits     map[string]int64 `json:"tier_hits"`
	Tiers        []Stats          `json:"tiers"`
}

// Metrics snapshots the composite.
func (t *Tiered) Metrics() Metrics {
	m := Metrics{
		Hits:         t.hits.Load(),
		Misses:       t.misses.Load(),
		Builds:       t.builds.Load(),
		ObjectBuilds: t.objectBuilds.Load(),
		FailedBuilds: t.failedBuilds.Load(),
		TierHits: map[string]int64{
			string(TierMem):  t.memHits.Load(),
			string(TierDisk): t.diskHits.Load(),
		},
		Tiers: []Stats{t.mem.Stats()},
	}
	if total := m.Hits + m.Misses; total > 0 {
		m.HitRate = float64(m.Hits) / float64(total)
	}
	if t.disk != nil {
		m.Tiers = append(m.Tiers, t.disk.Stats())
	}
	return m
}

// Close closes both tiers once; subsequent calls return the first
// result.
func (t *Tiered) Close() error {
	t.closeOnce.Do(func() {
		t.mem.Close()
		if t.disk != nil {
			t.closeErr = t.disk.Close()
		}
	})
	return t.closeErr
}
