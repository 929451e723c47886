package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mcfi/internal/server"
	"mcfi/internal/toolchain"
)

// Seeded input generators. Each takes the workload seed and nothing else
// that varies, so one seed always yields byte-identical inputs.

// plugin is one dlopen-storm module.
type plugin struct {
	src toolchain.Source
	fn  string // the export Dlsym resolves, making it address-taken
	// merge plugins also call fn directly. That gives fn a return-site
	// class before the dlsym flip, so the flip genuinely merges classes
	// across modules and the runtime falls back to a full rebuild.
	merge bool
}

// stormPlugins generates n plugins of varying size. One plugin in each
// block of ten, at a seeded position, forces a class merge; a fixed share
// keeps the update-latency tail from depending on how many merges a seed
// happened to draw. The smallest plugin has the three functions of the
// storm module in `mcfi-bench -exp updates`; the largest has eight times
// as many. That range is a choice, not a measurement: it spans enough that
// a per-function cost in Dlopen moves update_p50_ms.
func stormPlugins(seed int64, n int) []plugin {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	out := make([]plugin, n)
	mergeAt := 0
	for i := range out {
		if i%10 == 0 {
			mergeAt = i + rng.Intn(10)
		}
		name := fmt.Sprintf("plug%d", i)
		helpers := 2 + rng.Intn(22) // with fn, 3 to 24 functions
		merge := i == mergeAt
		var b strings.Builder
		fmt.Fprintf(&b, "long %s_state = %d;\n", name, 1+rng.Intn(1000))
		fmt.Fprintf(&b, "long %s_fn(long x) { return x * %s_state + %d; }\n", name, name, rng.Intn(1000))
		for h := 0; h < helpers; h++ {
			fmt.Fprintf(&b, "long %s_h%d(long x) {\n\tlong s = x;\n", name, h)
			fmt.Fprintf(&b, "\tfor (long k = 0; k < %d; k++) s = s * %d + k;\n", 1+rng.Intn(16), 3+rng.Intn(50))
			fmt.Fprintf(&b, "\treturn s ^ %d;\n}\n", rng.Intn(1<<16))
		}
		if merge {
			fmt.Fprintf(&b, "long %s_call(long x) { return %s_fn(x) + 1; }\n", name, name)
		}
		out[i] = plugin{
			src:   toolchain.Source{Name: name, Text: b.String()},
			fn:    name + "_fn",
			merge: merge,
		}
	}
	return out
}

// arrival is one serve-mix job, due at offset At from the start.
type arrival struct {
	At  time.Duration
	Key string // oracle key
	Req server.JobRequest
}

// Serving tenants: interactive runs (named workloads, plus the programs
// that violate CFI on purpose), build-heavy synthetic sources, and
// update-heavy dynamic-linking jobs.
const (
	tenantRun   = "interactive"
	tenantBuild = "builds"
	tenantDyn   = "dynamic"
)

// serveJob is one distinct serve-mix job, keyed by its oracle key.
type serveJob struct {
	key string
	req server.JobRequest
}

// serveJobs lists every distinct serve-mix job at a scale, by kind, in a
// fixed order.
type serveJobs struct {
	named, synth, dlopen, jitsim, bad []serveJob
}

func (c serveJobs) all() []serveJob {
	var out []serveJob
	for _, g := range [][]serveJob{c.named, c.synth, c.dlopen, c.jitsim, c.bad} {
		out = append(out, g...)
	}
	return out
}

func serveCatalogue(sc scale) serveJobs {
	var c serveJobs
	for _, p := range sc.serveWork {
		c.named = append(c.named, serveJob{
			key: fmt.Sprintf("serve/run/%s/w%d", p.name, p.work),
			req: server.JobRequest{Workload: p.name, Work: p.work, Tenant: tenantRun},
		})
	}
	for v := 0; v < sc.synthVariants; v++ {
		c.synth = append(c.synth, serveJob{
			key: fmt.Sprintf("serve/synth/v%d/f%d", v, sc.synthFuncs),
			req: server.JobRequest{
				Source: server.SyntheticSource(v, sc.synthFuncs),
				Name:   fmt.Sprintf("synth%d", v), Tenant: tenantBuild,
			},
		})
	}
	for _, w := range sc.dlopenWork {
		c.dlopen = append(c.dlopen, serveJob{
			key: fmt.Sprintf("serve/dlopen/w%d", w),
			req: server.JobRequest{Kind: "dlopen", Work: w, Tenant: tenantDyn},
		})
	}
	for _, w := range sc.jitsimWork {
		c.jitsim = append(c.jitsim, serveJob{
			key: fmt.Sprintf("serve/jitsim/w%d", w),
			req: server.JobRequest{Kind: "jitsim", Work: w, Tenant: tenantDyn},
		})
	}
	for v := 0; v < sc.violators; v++ {
		c.bad = append(c.bad, serveJob{
			key: fmt.Sprintf("serve/violate/v%d", v),
			req: server.JobRequest{Source: violatorSource(v), Name: fmt.Sprintf("smash%d", v), Tenant: tenantRun},
		})
	}
	return c
}

// violatorSource overwrites a return address with the address of a
// function that is only ever called indirectly: MCFI must halt it at the
// return's check transaction.
func violatorSource(v int) string {
	return fmt.Sprintf(`
int pwned = 0;
void evil%d(void) { pwned = %d; puts("evil ran"); }
void (*keep)(void) = evil%d;

long victim(long target) {
	long x = %d;
	long *p = &x;
	p[2] = target;
	return x;
}
int main(void) {
	victim((long)evil%d);
	return pwned;
}
`, v, v+1, v, v*7, v)
}

// The job mix follows the repository's recorded serving mix, CI's
// `mcfi-load -job-mix run=2,dlopen=1,jitsim=1`: half the jobs run a
// program, a quarter are dlopen jobs and a quarter jitsim jobs. The run
// half is split evenly between the two run tenants, named workloads and
// the synthetic corpus, and one named run in violatorEvery is instead a
// program that violates CFI. The even split and the violator share are
// choices, not measurements: no recorded mix has both run tenants, and
// one in violatorEvery yields some twenty violations in a run, enough that
// the verdict path is exercised in every run without shaping the tail.
const violatorEvery = 10

// zipfExponent is Zipf's law proper. The repository records no
// popularity skew for its corpus (the serving-cluster experiment scrambles
// a uniform order), so the benchmark takes the classic law.
const zipfExponent = 1.0

// deck deals the indices 0..n-1 in a seeded order, reshuffling whenever
// it runs out, so each index is dealt equally often.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func (d *deck) next() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	i := d.left[0]
	d.left = d.left[1:]
	return i
}

// serveArrivals draws Poisson arrivals at rate jobs/s over dur,
// conditioned on their count: exactly rate*dur arrival times, uniform and
// independent over [0, dur), so every seed offers the same load. Kinds are
// dealt from a deck, one of each per block of four in a seeded order, much
// as mcfi-load interleaves its weighted mix, and named programs and the
// violator's place among named runs likewise: every seed then offers the
// same composition. Synthetic variants are drawn Zipf-like over a
// seed-permuted ranking of the working set, so a few variants are hot and
// the tail is cold.
func serveArrivals(seed int64, sc scale, rate float64, dur time.Duration) []arrival {
	c := serveCatalogue(sc)
	named, synth, bad := c.named, c.synth, c.bad
	rng := rand.New(rand.NewSource(seed*104729 + 7))
	rank := rng.Perm(len(synth))
	cum := make([]float64, len(synth))
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), zipfExponent)
		cum[i] = total
	}
	pickSynth := func() serveJob {
		u := rng.Float64() * total
		for i, c := range cum {
			if u <= c {
				return synth[rank[i]]
			}
		}
		return synth[rank[len(rank)-1]]
	}
	n := int(math.Round(rate * dur.Seconds()))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })
	kinds := &deck{rng: rng, n: 4}
	namedDeck := &deck{rng: rng, n: len(named)}
	violate := &deck{rng: rng, n: violatorEvery}
	badDeck := &deck{rng: rng, n: len(bad)}
	dlopen := &deck{rng: rng, n: len(c.dlopen)}
	jitsim := &deck{rng: rng, n: len(c.jitsim)}
	out := make([]arrival, 0, n)
	for _, t := range at {
		var j serveJob
		switch kinds.next() {
		case 0: // run: synthetic corpus
			j = pickSynth()
		case 1: // run: named workload, or a violator in its place
			if violate.next() == 0 {
				j = bad[badDeck.next()]
			} else {
				j = named[namedDeck.next()]
			}
		case 2:
			j = c.dlopen[dlopen.next()]
		default:
			j = c.jitsim[jitsim.next()]
		}
		out = append(out, arrival{At: t, Key: j.key, Req: j.req})
	}
	return out
}
