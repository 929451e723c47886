package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the histogram bucket upper bounds in
// seconds, spanning sub-millisecond queue waits through minute-scale
// guest runs.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram with lock-free
// observation (Prometheus classic-histogram semantics: cumulative
// buckets plus sum and count are derived at render time).
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending
	counts []atomic.Int64
	count  atomic.Int64
	sumNs  atomic.Int64
}

// NewHistogram builds a histogram over the given bucket upper bounds
// (nil → DefaultLatencyBuckets). Bounds must be ascending.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1), // +Inf overflow
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, secs)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// HistSnapshot is a render-ready histogram state: Buckets[i] is the
// cumulative count at Bounds[i]; Count covers +Inf.
type HistSnapshot struct {
	Bounds  []float64
	Buckets []int64
	Count   int64
	SumSecs float64
}

// Snapshot reads the histogram. Concurrent observers may land between
// the bucket reads and the totals; Count is recomputed from the bucket
// reads so the exposition is always internally consistent (bucket sums
// equal count), which the Prometheus format requires.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Bounds: h.bounds, Buckets: make([]int64, len(h.bounds))}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if i < len(s.Buckets) {
			s.Buckets[i] = cum
		}
	}
	s.Count = cum
	s.SumSecs = float64(h.sumNs.Load()) / 1e9
	return s
}

// Quantile estimates the p-quantile (0 <= p <= 1) the way
// Prometheus' histogram_quantile does: find the bucket holding rank
// p×Count and interpolate linearly within it, taking the lowest
// bucket to start at 0. A rank in the +Inf bucket reports the highest
// finite bound; an empty histogram reports 0.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := min(max(p, 0), 1) * float64(s.Count)
	b := sort.Search(len(s.Buckets), func(i int) bool { return float64(s.Buckets[i]) >= rank })
	if b == len(s.Buckets) {
		return secs(s.Bounds[len(s.Bounds)-1])
	}
	start, below := 0.0, int64(0)
	if b > 0 {
		start, below = s.Bounds[b-1], s.Buckets[b-1]
	}
	in := s.Buckets[b] - below
	if in == 0 {
		return secs(start)
	}
	return secs(start + (s.Bounds[b]-start)*(rank-float64(below))/float64(in))
}

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// HistVec is a histogram family keyed by one label value (tenant,
// engine, store tier, ...). Label values are created on first use.
type HistVec struct {
	bounds []float64
	mu     sync.Mutex
	hists  map[string]*Histogram
}

// NewHistVec builds a labeled histogram family (nil bounds →
// DefaultLatencyBuckets).
func NewHistVec(bounds []float64) *HistVec {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &HistVec{bounds: bounds, hists: map[string]*Histogram{}}
}

// With returns the histogram for one label value.
func (v *HistVec) With(label string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.hists[label]
	if !ok {
		h = NewHistogram(v.bounds)
		v.hists[label] = h
	}
	return h
}

// Observe records a duration under a label value.
func (v *HistVec) Observe(label string, d time.Duration) { v.With(label).Observe(d) }

// Snapshot returns every label's histogram state, sorted by label.
func (v *HistVec) Snapshot() []LabeledHist {
	v.mu.Lock()
	labels := make([]string, 0, len(v.hists))
	for l := range v.hists {
		labels = append(labels, l)
	}
	hists := make(map[string]*Histogram, len(v.hists))
	for l, h := range v.hists {
		hists[l] = h
	}
	v.mu.Unlock()
	sort.Strings(labels)
	out := make([]LabeledHist, 0, len(labels))
	for _, l := range labels {
		out = append(out, LabeledHist{Label: l, Hist: hists[l].Snapshot()})
	}
	return out
}

// LabeledHist pairs a label value with its histogram snapshot.
type LabeledHist struct {
	Label string
	Hist  HistSnapshot
}

// SumHists folds a family's label values into one snapshot (all of a
// HistVec's histograms share its bounds).
func SumHists(hs []LabeledHist) HistSnapshot {
	var out HistSnapshot
	for _, h := range hs {
		if out.Buckets == nil {
			out.Bounds, out.Buckets = h.Hist.Bounds, make([]int64, len(h.Hist.Buckets))
		}
		for i, c := range h.Hist.Buckets {
			out.Buckets[i] += c
		}
		out.Count += h.Hist.Count
		out.SumSecs += h.Hist.SumSecs
	}
	return out
}
