package main

import (
	"fmt"
	"math/rand"
	"time"

	"mcfi/internal/linker"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/workload"
)

// exec-steady: Fig. 5 as a closed loop. Setup builds every program once
// per flavor; the run then executes one guest at a time, each program's
// uninstrumented and instrumented images back to back (which goes first
// flips every round), each on a fresh mrt.New. Round 0 is warmup: it is
// checked and reported as each program's first run, but only later
// rounds are steady-state samples.

var flavors = [2]string{"base", "mcfi"}

func execKey(p programWork, flavor int) string {
	return fmt.Sprintf("exec/%s/w%d/%s", p.name, p.work, flavors[flavor])
}

func programSource(name string, work int) toolchain.Source {
	w, ok := workload.ByName(name)
	if !ok {
		panic("unknown program " + name) // scale tables name only real programs
	}
	return toolchain.Source{Name: w.Name, Text: w.SourceWithWork(work)}
}

func execInputs(sc scale) []oracleInput {
	var ins []oracleInput
	for _, p := range sc.execWork {
		src := programSource(p.name, p.work)
		for f := range flavors {
			ins = append(ins, oracleInput{
				key: execKey(p, f),
				src: digest(src.Text, flavors[f]),
				record: func() (expect, error) {
					img, err := toolchain.New(toolchain.WithInstrument(f == 1)).Build(src)
					if err != nil {
						return expect{}, err
					}
					exit, out, instret, err := interpRun(img)
					return expect{Exit: exit, Out: digest(out), Instret: instret}, err
				},
			})
		}
	}
	return ins
}

type execProg struct {
	pw  programWork
	img [2]*linker.Image
}

type execInstance struct{ progs []execProg }

func setupExec(rc *runCtx) (instance, error) {
	e := &execInstance{}
	libc := toolchain.NewLibcCache()
	for _, p := range rc.sc.execWork {
		ep := execProg{pw: p}
		for f := range flavors {
			b := toolchain.New(toolchain.WithInstrument(f == 1), toolchain.WithLibcCache(libc))
			img, err := b.Build(programSource(p.name, p.work))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			ep.img[f] = img
		}
		e.progs = append(e.progs, ep)
	}
	return e, nil
}

func (e *execInstance) close() {}

func (e *execInstance) measure(rc *runCtx) error {
	n := len(e.progs)
	rng := rand.New(rand.NewSource(rc.seed))
	steady := make([][2][]float64, n) // ms per steady run
	first := make([][2]float64, n)
	instret := make([][2]int64, n)
	var fills, fusedExecs, hits, misses, mcfiInstret int64

	minRounds := 3
	if rc.sc.tiny {
		minRounds = 2
	}
	deadline := time.Now().Add(rc.dur)
	var steadyStart time.Time
	var lastRound time.Duration
	var rounds []float64
	for round := 0; ; round++ {
		start := time.Now()
		if round >= minRounds && start.Add(lastRound).After(deadline) {
			break
		}
		if round == 1 {
			steadyStart = start
		}
		for _, i := range rng.Perm(n) {
			order := [2]int{0, 1}
			if (int64(round)+rc.seed)%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, f := range order {
				ms, rt, err := e.runOne(rc, i, f)
				rc.attempted++
				if err != nil {
					rc.fail(err)
					continue
				}
				st := rt.CheckStats()
				fills += st.ICacheFills
				if f == 1 {
					fusedExecs += st.Execs
					hits += st.VerdictHits
					misses += st.VerdictMisses
					mcfiInstret += rt.Instret()
				}
				instret[i][f] = rt.Instret()
				if round == 0 {
					first[i][f] = ms
					continue
				}
				steady[i][f] = append(steady[i][f], ms)
				rc.lat = append(rc.lat, ms)
			}
		}
		lastRound = time.Since(start)
		rounds = append(rounds, lastRound.Seconds())
	}
	fmt.Fprintf(rc.log, "round times (s): %.3f\n", rounds)
	rc.wall = time.Since(steadyStart)

	var rates, slowdowns, firsts []float64
	fmt.Fprintf(rc.log, "%-10s %6s %10s %10s %10s %10s %9s %9s\n",
		"program", "work", "base.1st", "base.p50", "mcfi.1st", "mcfi.p50", "Minstr/s", "slowdown")
	for i, p := range e.progs {
		base, mcfi := median(steady[i][0]), median(steady[i][1])
		rate := ratio(float64(instret[i][1])/1e3, mcfi) // instr per ms / 1e3 = Minstr/s
		slow := ratio(mcfi, base)
		rates = append(rates, rate)
		slowdowns = append(slowdowns, slow)
		firsts = append(firsts, ratio(first[i][0], base), ratio(first[i][1], mcfi))
		rc.set("exec."+p.pw.name+".minstr_per_s", rate)
		rc.set("exec."+p.pw.name+".slowdown", slow)
		fmt.Fprintf(rc.log, "%-10s %6d %10.2f %10.2f %10.2f %10.2f %9.1f %9.3f\n",
			p.pw.name, p.pw.work, first[i][0], base, first[i][1], mcfi, rate, slow)
	}
	rc.set("guest_minstr_per_s", geomean(rates))
	rc.set("mcfi_slowdown", geomean(slowdowns))
	rc.set("exec.first_run_ratio", geomean(firsts))
	rc.set("vm.icache_fills", float64(fills)/float64(rc.attempted))
	rc.set("vm.fused_checks_per_kinstr", ratio(float64(fusedExecs), float64(mcfiInstret)/1e3))
	rc.set("vm.verdict_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	fmt.Fprintf(rc.log, "guest %.1f Minstr/s (geomean), mcfi slowdown %.3fx (geomean)\n",
		geomean(rates), geomean(slowdowns))
	return nil
}

// runOne loads and runs one image on a fresh runtime, timing mrt.New to
// exit, and checks the outcome against the reference record.
func (e *execInstance) runOne(rc *runCtx, i, f int) (float64, *mrt.Runtime, error) {
	p := e.progs[i]
	trace := uint64(rc.attempted + 1)
	op := rc.tr.begin("exec.run", 0, trace)
	t0 := time.Now()
	var rt *mrt.Runtime
	var err error
	rc.tr.timed("mrt.new", op, trace, func() { rt, err = mrt.New(p.img[f], mrt.Options{}) })
	if err != nil {
		rc.tr.end(op)
		return 0, nil, fmt.Errorf("%s: %w", execKey(p.pw, f), err)
	}
	var code int64
	rc.tr.timed("vm.run", op, trace, func() { code, err = rt.Run(0) })
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	rc.tr.end(op)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", execKey(p.pw, f), err)
	}
	if err := rc.oracle.checkRun(execKey(p.pw, f), code, rt.Output(), rt.Instret(), true); err != nil {
		rc.invalid = append(rc.invalid, err.Error()) // an instret mismatch fails the run
		return 0, nil, err
	}
	return ms, rt, nil
}
