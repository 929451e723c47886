package main

import "mcfi/internal/workload"

// scale sizes every workload. fullScale is what the benchmark runs;
// tinyScale keeps the same code paths small enough for the race detector
// in the benchmark's own tests.
type scale struct {
	tiny bool

	// exec-steady: the programs and the Work each runs at.
	execWork []programWork

	// build-cold: the programs and the Table 3 GenScale of their
	// scaling modules.
	buildPrograms []string
	buildGenScale float64

	// dlopen-storm: the gcc guest's Work and scaling-module GenScale,
	// the plugin arrival rate, the plugins each guest loads, and the
	// length of the seeded plugin stream compiled in setup.
	stormWork     int
	stormGenScale float64
	stormHz       float64
	stormPerGuest int
	stormStream   int

	// serve-mix: arrival rate, named-workload Work, synthetic working
	// set, dynamic-job sizes and the mem tier's capacity.
	serveRate     float64
	serveWork     []programWork
	synthVariants int
	synthFuncs    int
	dlopenWork    []int
	jitsimWork    []int
	violators     int
	cacheEntries  int
}

type programWork struct {
	name string
	work int
}

// execWorkFull scales each program so one run takes about as long as
// lbm's minimum of one iteration (about 90 ms on a 2-CPU x86-64 VM). No
// program then dominates a round, and the run-time clusters of the 24
// images overlap, so the median run does not sit in a gap between them.
var execWorkFull = []programWork{
	{"perlbench", 2700}, {"bzip2", 5}, {"gcc", 1480}, {"mcf", 20},
	{"gobmk", 58}, {"hmmer", 18}, {"sjeng", 4}, {"libquantum", 375},
	{"h264ref", 415}, {"milc", 31}, {"lbm", 1}, {"sphinx3", 14},
}

// testWorkBut runs every program at its reduced test scale (TestWork), as
// `mcfi-load -test-work` does, except the programs named.
func testWorkBut(except ...string) []programWork {
	var out []programWork
	for _, w := range workload.All() {
		if !contains(except, w.Name) {
			out = append(out, programWork{w.Name, w.TestWork})
		}
	}
	return out
}

var fullScale = scale{
	execWork:      execWorkFull,
	buildPrograms: nil, // all twelve
	buildGenScale: 1.0,

	// At GenScale 1.0 a forced merge's full rebuild takes about half a
	// second, so one merge in ten at 50 Hz would queue without bound;
	// at 0.1 the loop keeps up and latency measures the update itself.
	stormWork:     6000,
	stormGenScale: 0.1,
	stormHz:       50,
	stormPerGuest: 10,
	stormStream:   100,

	// Named jobs are every program at its test scale, as CI's mixed-kind
	// smoke test sends them, but lbm: at TestWork it runs 27 million guest
	// instructions, four times the next longest (bzip2), so the latency
	// tail would count lbm jobs alone. The synthetic corpus and the mem tier are the serving
	// experiment's (EXPERIMENTS.md): 64 variants of 1024 functions against
	// 32 cached images. Dynamic jobs leave Work at 0, the server's
	// default, as CI does. The three violators are a choice.
	serveRate:     serveRateFull,
	serveWork:     testWorkBut("lbm"),
	synthVariants: 64,
	synthFuncs:    1024,
	dlopenWork:    []int{0},
	jitsimWork:    []int{0},
	violators:     3,
	cacheEntries:  32,
}

var tinyScale = scale{
	tiny:          true,
	execWork:      []programWork{{"perlbench", 20}, {"gcc", 8}, {"libquantum", 4}},
	buildPrograms: []string{"perlbench", "gcc", "libquantum"},
	buildGenScale: 0.05,

	stormWork:     400,
	stormGenScale: 0.05,
	stormHz:       50,
	stormPerGuest: 4,
	stormStream:   8,

	serveRate:     20,
	serveWork:     []programWork{{"perlbench", 20}, {"gcc", 8}},
	synthVariants: 4,
	synthFuncs:    16,
	dlopenWork:    []int{2},
	jitsimWork:    []int{2},
	violators:     1,
	cacheEntries:  2,
}
