package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share a trace id;
// Parent is the ID of the enclosing span (0 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  int64  `json:"alloc_bytes"`
}

// tracer keeps spans in memory for the length of a traced run. A nil
// tracer records nothing, so untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cost  time.Duration // time spent inside begin/end/add
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// heapAllocs reads the cumulative bytes the Go heap has allocated, without
// stopping the world.
func heapAllocs() int64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// begin opens a span and returns its ID (0 when not tracing).
func (t *tracer) begin(name string, parent int, trace uint64) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: now.Sub(t.t0).Nanoseconds(), Alloc: -a,
	})
	t.cost += time.Since(now)
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now.Sub(t.t0).Nanoseconds()
	s.Alloc += a
	t.cost += time.Since(now)
}

// add records a span whose bounds were measured elsewhere (the server's
// per-job phase summary).
func (t *tracer) add(name string, parent int, trace uint64, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: st, End: st + d.Nanoseconds(),
	})
	t.cost += time.Since(now)
	return len(t.spans)
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, trace uint64, fn func()) {
	id := t.begin(name, parent, trace)
	fn()
	t.end(id)
}

// selfTotal is a layer's summed self time and self allocation.
type selfTotal struct {
	ns, alloc int64
	count     int
}

// selfTimes sums each span name's self time: the span's duration minus
// the part of it its child spans cover, and likewise for allocation.
func (t *tracer) selfTimes() map[string]selfTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]selfTotal)
	for i, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		var iv [][2]int64
		alloc := s.Alloc
		for _, c := range children[i+1] {
			cs := t.spans[c]
			iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
			alloc -= cs.Alloc
		}
		tot := out[s.Name]
		tot.ns += s.End - s.Start - covered(iv)
		tot.alloc += alloc
		tot.count++
		out[s.Name] = tot
	}
	return out
}

// covered returns the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if !open || v[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
			continue
		}
		curHi = max(curHi, v[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
