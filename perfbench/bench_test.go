package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	plugSrc := func(seed int64) []string {
		var out []string
		for _, p := range stormPlugins(seed, 30) {
			out = append(out, p.src.Name, p.src.Text)
		}
		return out
	}
	mix := func(seed int64) []byte {
		b, err := json.Marshal(serveArrivals(seed, fullScale, fullScale.serveRate, 5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	synth := func(seed int64) []string {
		var out []string
		for _, a := range serveArrivals(seed, fullScale, fullScale.serveRate, 5*time.Second) {
			if strings.HasPrefix(a.Key, "serve/synth/") {
				out = append(out, a.Req.Source)
			}
		}
		return out
	}
	if !reflect.DeepEqual(plugSrc(7), plugSrc(7)) {
		t.Error("same seed, different plugins")
	}
	if reflect.DeepEqual(plugSrc(7), plugSrc(8)) {
		t.Error("different seeds, same plugins")
	}
	if string(mix(7)) != string(mix(7)) {
		t.Error("same seed, different job mix")
	}
	if string(mix(7)) == string(mix(8)) {
		t.Error("different seeds, same job mix")
	}
	if !reflect.DeepEqual(synth(7), synth(7)) {
		t.Error("same seed, different synthetic sources")
	}
	if reflect.DeepEqual(synth(7), synth(8)) {
		t.Error("different seeds, same synthetic sources")
	}
}

func TestStormPluginsForceOneMergePerTen(t *testing.T) {
	ps := stormPlugins(3, 100)
	for block := 0; block < 10; block++ {
		n := 0
		for _, p := range ps[block*10 : block*10+10] {
			if p.merge {
				n++
			}
		}
		if n != 1 {
			t.Errorf("block %d has %d merging plugins, want 1", block, n)
		}
	}
}

func TestServeArrivalsHaveExactCount(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		as := serveArrivals(seed, fullScale, 40, 10*time.Second)
		if len(as) != 400 {
			t.Fatalf("seed %d: %d arrivals, want 400", seed, len(as))
		}
		for i := 1; i < len(as); i++ {
			if as[i].At < as[i-1].At || as[i].At >= 10*time.Second {
				t.Fatalf("seed %d: arrival %d at %v out of order or range", seed, i, as[i].At)
			}
		}
	}
}

// TestServeMixComposition checks that every seed offers the same mix:
// a quarter of each kind, with one named run in violatorEvery a violator.
func TestServeMixComposition(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		count := map[string]int{}
		for _, a := range serveArrivals(seed, fullScale, 40, 20*time.Second) {
			count[strings.SplitN(a.Key, "/", 3)[1]]++
		}
		want := map[string]int{"synth": 200, "run": 180, "violate": 20, "dlopen": 200, "jitsim": 200}
		if !reflect.DeepEqual(count, want) {
			t.Errorf("seed %d: job kinds %v, want %v", seed, count, want)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples above)", v, pct)
	}
	v, pct = tail([]float64{3, 1, 2})
	if v != 3 || pct != 100 {
		t.Errorf("tail of three samples = %v at p%v, want the max at p100", v, pct)
	}
	if v, _ := tail(nil); v != 0 {
		t.Errorf("tail of nothing = %v", v)
	}
	xs = make([]float64, 11)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); v != 0 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Errorf("tail of 11 samples = %v at p%v, want the minimum", v, pct)
	}
}

func TestGeomeanAndMedian(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v", g)
	}
	if g := geomean([]float64{2, 0}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
	if m := median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if q := quantile([]float64{1, 2, 3, 4}, 0.99); q != 4 {
		t.Errorf("p99 of four = %v", q)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{ID: 1, Name: "op", Start: 0, End: 100, Alloc: 50},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40, Alloc: 20},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60, Alloc: 10},
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45, Alloc: 5},
	}
	got := tr.selfTimes()
	want := map[string]selfTotal{
		"op": {ns: 50, alloc: 20, count: 1}, // children cover [10,60)
		"a":  {ns: 30, alloc: 20, count: 1},
		"b":  {ns: 20, alloc: 5, count: 1},
		"c":  {ns: 10, alloc: 5, count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %+v, want %+v", got, want)
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []benchMetric                `json:"end_to_end"`
		PerLayer  []benchMetric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	seen := map[string]bool{}
	for _, w := range b.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark lacks", w.Name)
		}
		seen[w.Name] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	check := func(kind string, got []benchMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if !nameRe.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("%s: name %q used twice", kind, m.Name)
			}
			seen[m.Name] = true
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, catalogue %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
			if bounded && (m.Bound == nil || *m.Bound != w.bound || w.bound <= 0 || w.bound > 0.25) {
				t.Errorf("%s: %s bound mismatch or outside (0, 0.25]", kind, m.Name)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: %s has a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestWorkloadsTiny runs every workload end to end at tiny scale, traced
// and untraced, and requires zero errors. Under -race it covers host
// Dlopen racing a running guest (dlopen-storm) and concurrent jobs
// (serve-mix).
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				rc := &runCtx{seed: 5, dur: time.Second, sc: tinyScale, dir: t.TempDir(), log: io.Discard}
				if testing.Verbose() {
					rc.log = os.Stderr
				}
				if traced {
					rc.tr = newTracer()
				}
				res, err := runWorkload(w, rc)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.name]
					if !ok || v.Unit != m.unit {
						t.Errorf("metric %s missing or unit %q", m.name, v.Unit)
					}
				}
			})
		}
	}
}
