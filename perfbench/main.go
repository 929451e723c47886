// Command perfbench is the repository benchmark. One invocation runs one
// named workload, generated from a seed, for a fixed number of seconds,
// checks every output against the reference record (oracle.json), and
// prints one JSON result line:
//
//	perfbench --workload exec-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run records spans around every call into a layer's public functions
// and reports each layer's self time and counters instead (see
// metrics.go). Spans are written to .bench_build/perfbench/ when the run
// ends. Diagnostics and a human-readable report go to standard error.
//
// Other modes: -record <path> rewrites the reference record; -calibrate
// measures serve-mix's closed-loop capacity on this machine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one named workload. setup prepares a fresh instance; the
// harness times several setups and measures the last instance.
type workloadDef struct {
	name   string
	inputs func(sc scale) []oracleInput
	setup  func(rc *runCtx) (inst instance, err error)
}

// instance is one set-up workload, ready to measure.
type instance interface {
	measure(rc *runCtx) error
	close()
}

var workloads = []workloadDef{
	{name: "exec-steady", inputs: execInputs, setup: setupExec},
	{name: "build-cold", inputs: buildInputs, setup: setupBuild},
	{name: "dlopen-storm", inputs: stormInputs, setup: setupStorm},
	{name: "serve-mix", inputs: serveInputs, setup: setupServe},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runCtx carries one run's settings and collects its measurements.
type runCtx struct {
	seed   int64
	dur    time.Duration
	sc     scale
	dir    string // scratch directory inside the checkout
	tr     *tracer
	oracle oracle
	log    io.Writer

	lat       []float64 // latency of each correct op, ms
	attempted int64
	failed    int64
	wall      time.Duration // measured wall time the ops span
	invalid   []string      // reasons the whole run is invalid
	layer     map[string]float64
}

// fail counts one failed op and reports the first few.
func (rc *runCtx) fail(err error) {
	rc.failed++
	if rc.failed <= 5 {
		fmt.Fprintf(rc.log, "perfbench: op failed: %v\n", err)
	}
}

func (rc *runCtx) set(name string, v float64) { rc.layer[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: exec-steady, build-cold, dlopen-storm or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	record := fs.String("record", "", "rewrite the reference record at this path and exit")
	calibrate := fs.Bool("calibrate", false, "measure serve-mix closed-loop capacity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *record != "" {
		if err := recordOracle(*record, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *calibrate {
		if err := calibrateServe(dir, time.Duration(*seconds)*time.Second, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	rc := &runCtx{
		seed: *seed, dur: time.Duration(*seconds) * time.Second,
		sc: fullScale, dir: dir, log: stderr,
	}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	res, err := runWorkload(w, rc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rc.tr != nil {
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		if err := rc.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans written to %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// The harness sets a workload up at least minSetupReps times and until
// setups have taken minSetupTime, at most maxSetupReps times; setup_s is
// the median, so a short set-up is sampled often enough to be steady.
const (
	minSetupReps = 3
	maxSetupReps = 50
	minSetupTime = 500 * time.Millisecond
)

// runWorkload sets w up, measures it, and assembles the result.
func runWorkload(w workloadDef, rc *runCtx) (result, error) {
	o, err := loadOracle()
	if err != nil {
		return result{}, err
	}
	if err := o.require(w.inputs(rc.sc)); err != nil {
		return result{}, err
	}
	rc.oracle = o
	rc.layer = map[string]float64{}

	minReps := minSetupReps
	if rc.sc.tiny {
		minReps = 1
	}
	// Setup is timed untraced: spans cover the measured ops only.
	tr := rc.tr
	rc.tr = nil
	var setups []float64
	var total time.Duration
	var inst instance
	for i := 0; i < maxSetupReps && (i < minReps || (!rc.sc.tiny && total < minSetupTime)); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		inst, err = w.setup(rc)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", w.name, err)
		}
		total += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	rc.tr = tr
	if rc.tr != nil {
		rc.tr.t0 = time.Now()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := inst.measure(rc); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	runtime.ReadMemStats(&m1)
	if rc.attempted == 0 {
		return result{}, fmt.Errorf("%s: no op was attempted", w.name)
	}

	res := result{
		Correct:   rc.failed == 0 && len(rc.invalid) == 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, why := range rc.invalid {
		fmt.Fprintln(rc.log, "perfbench: run invalid:", why)
	}
	ops := float64(rc.attempted)
	p50 := median(rc.lat)
	tailV, tailPct := tail(rc.lat)
	fmt.Fprintf(rc.log, "%s seed=%d: %d ops (%d failed) in %.2fs; op p50 %.3f ms, tail p%.1f %.3f ms over %d samples\n",
		w.name, rc.seed, rc.attempted, rc.failed, rc.wall.Seconds(), p50, tailPct, tailV, len(rc.lat))

	var vals map[string]float64
	var catalogue []metric
	if rc.tr == nil {
		catalogue = endToEnd
		vals = map[string]float64{
			"setup_s":         median(setups),
			"op_p50_ms":       p50,
			"op_tail_ms":      tailV,
			"ops_per_s":       float64(len(rc.lat)) / rc.wall.Seconds(),
			"alloc_mb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / ops / (1 << 20),
			"peak_rss_mb":     peakRSSMiB(),
		}
	} else {
		catalogue = perLayer
		vals = layerValues(rc, ops)
		vals["error_rate"] = float64(rc.failed) / ops
		vals["op.tail_pct"] = tailPct
		vals["op.samples"] = float64(len(rc.lat))
		vals["go.alloc_mb_per_run"] = float64(m1.TotalAlloc-m0.TotalAlloc) / ops / (1 << 20)
		vals["go.gc_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops
		vals["trace.op_p50_ms"] = p50
		vals["trace.overhead_pct"] = 100 * rc.tr.cost.Seconds() / rc.wall.Seconds()
	}
	for _, m := range catalogue {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for k := range vals {
		if _, ok := unitOf(catalogue, k); !ok {
			return result{}, fmt.Errorf("workload set metric %s, which the catalogue lacks", k)
		}
	}
	return res, nil
}

// layerValues turns span self times into per-op layer metrics and merges
// the workload's own counters over them.
func layerValues(rc *runCtx, ops float64) map[string]float64 {
	vals := map[string]float64{}
	self := rc.tr.selfTimes()
	spans := 0
	for name, t := range self {
		spans += t.count
		if _, ok := unitOf(perLayer, name+"_ms"); ok {
			vals[name+"_ms"] = float64(t.ns) / 1e6 / ops
		}
		if layer, _, _ := strings.Cut(name, "."); layerAllocSpan[name] {
			vals[layer+".alloc_mb"] += float64(t.alloc) / ops / (1 << 20)
		}
	}
	vals["trace.spans"] = float64(spans)
	for k, v := range rc.layer {
		vals[k] = v
	}
	return vals
}

// layerAllocSpan names the spans whose self allocation counts toward
// their layer's alloc_mb metric (build-cold's single-goroutine pipeline).
var layerAllocSpan = map[string]bool{
	"minic.parse": true, "sema.analyze": true, "codegen.compile": true,
	"linker.link": true, "verifier.verify": true, "mrt.new": true,
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
