package main

import (
	"fmt"
	"time"

	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/verifier"
	"mcfi/internal/workload"
)

// dlopen-storm: Fig. 6 with real dlopen calls. The instrumented gcc image
// plus its scaling module runs as the guest while this goroutine loads a
// seeded stream of plugins in an open loop at a fixed rate, calling
// Runtime.Dlopen then Runtime.Dlsym for each; every plugin passes through
// verifier.Verify via mrt.Options.Verify. One guest is one episode: it
// loads the next stormPerGuest plugins of the stream on a fresh runtime
// and schedule, so every episode carries the same number of updates and
// exactly one forced merge. An update is timed from its scheduled time;
// the guest's rate is taken over the storm window, from the first update's
// due time to the last update's completion.

func stormGuest(sc scale) []toolchain.Source {
	w, _ := workload.ByName("gcc")
	p := w.Gen
	p.Funcs = int(float64(p.Funcs) * sc.stormGenScale)
	p.FPTypes = max(1, int(float64(p.FPTypes)*sc.stormGenScale))
	p.Callers = int(float64(p.Callers) * sc.stormGenScale)
	p.Switches = int(float64(p.Switches) * sc.stormGenScale)
	return []toolchain.Source{
		{Name: w.Name, Text: w.SourceWithWork(sc.stormWork)},
		workload.GenerateModule(w.Name, 42, p),
	}
}

func stormKey(sc scale) string {
	return fmt.Sprintf("storm/gcc/w%d/g%g", sc.stormWork, sc.stormGenScale)
}

func stormInputs(sc scale) []oracleInput {
	srcs := stormGuest(sc)
	return []oracleInput{{
		key: stormKey(sc),
		src: digest(srcs[0].Text, srcs[1].Text),
		record: func() (expect, error) {
			img, err := toolchain.New(toolchain.WithInstrumentation()).Build(srcs...)
			if err != nil {
				return expect{}, err
			}
			exit, out, instret, err := interpRun(img)
			return expect{Exit: exit, Out: digest(out), Instret: instret}, err
		},
	}}
}

type stormPlugin struct {
	plugin
	obj *module.Object
}

type stormInstance struct {
	img     *linker.Image
	plugins []stormPlugin
}

func setupStorm(rc *runCtx) (instance, error) {
	b := toolchain.New(toolchain.WithInstrumentation(), toolchain.WithLibcCache(toolchain.NewLibcCache()))
	img, err := b.Build(stormGuest(rc.sc)...)
	if err != nil {
		return nil, fmt.Errorf("guest: %w", err)
	}
	s := &stormInstance{img: img}
	for _, p := range stormPlugins(rc.seed, rc.sc.stormStream) {
		obj, err := b.Compile(p.src)
		if err != nil {
			return nil, fmt.Errorf("plugin %s: %w", p.src.Name, err)
		}
		s.plugins = append(s.plugins, stormPlugin{plugin: p, obj: obj})
	}
	return s, nil
}

func (s *stormInstance) close() {}

// stormTotals accumulates the episodes' runtime counters.
type stormTotals struct {
	windowInstret          int64
	windowTime             time.Duration
	fills, hits, misses    int64
	updates, retries       int64
	deltaPubs, fullPubs    int64
	lateness               []float64 // generator lateness per update, ms
	episodes, mergesLoaded int
}

func (s *stormInstance) measure(rc *runCtx) error {
	period := time.Duration(float64(time.Second) / rc.sc.stormHz)
	var tot stormTotals
	start := time.Now()
	deadline := start.Add(rc.dur)
	for time.Now().Before(deadline) || tot.episodes == 0 {
		if err := s.episode(rc, period, &tot); err != nil {
			return err
		}
		tot.episodes++
	}
	rc.wall = time.Since(start)

	uTail, _ := tail(rc.lat)
	rate := ratio(float64(tot.windowInstret)/1e6, tot.windowTime.Seconds())
	rc.set("update_p50_ms", median(rc.lat))
	rc.set("update_tail_ms", uTail)
	rc.set("guest_minstr_per_s", rate)
	rc.set("mrt.delta_ratio", ratio(float64(tot.deltaPubs), float64(tot.deltaPubs+tot.fullPubs)))
	rc.set("tables.retries_per_update", ratio(float64(tot.retries), float64(tot.updates)))
	rc.set("vm.icache_fills", ratio(float64(tot.fills), float64(rc.attempted)))
	rc.set("vm.verdict_hit_ratio", ratio(float64(tot.hits), float64(tot.hits+tot.misses)))
	late99, lateMax := quantile(tot.lateness, 0.99), maxOf(tot.lateness)
	rc.set("loadgen.late_p99_ms", late99)
	rc.set("loadgen.late_max_ms", lateMax)
	if bound := float64(period.Nanoseconds()) / 1e6; late99 > bound {
		rc.invalid = append(rc.invalid, fmt.Sprintf(
			"update generator ran late: p99 %.2f ms exceeds one period (%.2f ms)", late99, bound))
	}
	fmt.Fprintf(rc.log, "%d episodes, %d updates (%d forcing a merge), %d delta / %d full publishes; guest %.1f Minstr/s in the storm window; generator late p99 %.2f ms, max %.2f ms\n",
		tot.episodes, rc.attempted, tot.mergesLoaded, tot.deltaPubs, tot.fullPubs, rate, late99, lateMax)
	return nil
}

// episode runs one guest to exit while the next plugins of the stream
// load on schedule.
func (s *stormInstance) episode(rc *runCtx, period time.Duration, tot *stormTotals) error {
	ep := uint64(tot.episodes + 1)
	curDlopen := 0 // span of the Dlopen in flight; only this goroutine touches it
	opts := mrt.Options{Verify: func(obj *module.Object) error {
		id := rc.tr.begin("verifier.verify", curDlopen, ep)
		defer rc.tr.end(id)
		return verifier.Verify(obj)
	}}
	var rt *mrt.Runtime
	var err error
	rc.tr.timed("mrt.new", 0, ep, func() { rt, err = mrt.New(s.img, opts) })
	if err != nil {
		return fmt.Errorf("load guest: %w", err)
	}
	first := tot.episodes * rc.sc.stormPerGuest
	batch := make([]stormPlugin, rc.sc.stormPerGuest)
	for k := range batch {
		batch[k] = s.plugins[(first+k)%len(s.plugins)]
		rt.RegisterLibrary(batch[k].obj)
	}

	var code int64
	var runErr error
	var exited time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		id := rc.tr.begin("vm.run", 0, ep)
		code, runErr = rt.Run(0)
		exited = time.Now()
		rc.tr.end(id)
	}()

	t0 := time.Now()
	instret0 := rt.Instret()
	prevDone := t0
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k, p := range batch {
		due := t0.Add(time.Duration(k) * period)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			<-timer.C
		}
		issued := time.Now()
		tot.lateness = append(tot.lateness, float64(issued.Sub(laterOf(due, prevDone)).Nanoseconds())/1e6)
		err := s.update(rc, rt, p, ep<<32|uint64(k+1), &curDlopen)
		prevDone = time.Now()
		rc.attempted++
		if err != nil {
			rc.fail(fmt.Errorf("episode %d update %d: %w", ep, k, err))
			continue
		}
		if p.merge {
			tot.mergesLoaded++
		}
		rc.lat = append(rc.lat, float64(prevDone.Sub(due).Nanoseconds())/1e6)
	}
	windowEnd, windowInstret := prevDone, rt.Instret()
	<-done
	if exited.Before(windowEnd) {
		// The guest finished inside the window; its rate counts up to exit.
		windowEnd, windowInstret = exited, rt.Instret()
	}
	tot.windowInstret += windowInstret - instret0
	tot.windowTime += windowEnd.Sub(t0)

	if runErr != nil {
		return fmt.Errorf("episode %d guest: %w", ep, runErr)
	}
	// Retried check transactions may add instructions, so the storm
	// compares exit code and output, not instret.
	if err := rc.oracle.checkRun(stormKey(rc.sc), code, rt.Output(), 0, false); err != nil {
		rc.invalid = append(rc.invalid, err.Error())
	}
	st := rt.CheckStats()
	delta, full := rt.PublishStats()
	tot.fills += st.ICacheFills
	tot.hits += st.VerdictHits
	tot.misses += st.VerdictMisses
	tot.updates += rt.Tables.Updates() - 1 // the initial publication is not storm work
	tot.retries += rt.Tables.Retries()
	tot.deltaPubs += delta
	tot.fullPubs += full - 1
	return nil
}

// update loads one plugin and resolves its export.
func (s *stormInstance) update(rc *runCtx, rt *mrt.Runtime, p stormPlugin, trace uint64, curDlopen *int) error {
	op := rc.tr.begin("storm.update", 0, trace)
	defer rc.tr.end(op)
	var h int64
	var err error
	*curDlopen = rc.tr.begin("mrt.dlopen", op, trace)
	h, err = rt.Dlopen(p.src.Name)
	rc.tr.end(*curDlopen)
	if err != nil {
		return err
	}
	var addr int64
	rc.tr.timed("mrt.dlsym", op, trace, func() { addr, err = rt.Dlsym(h, p.fn) })
	if err != nil {
		return err
	}
	if sym, ok := rt.Symbol(p.fn); !ok || sym.Addr != addr || addr == 0 {
		return fmt.Errorf("dlsym %s = %#x, symbol table says %#x", p.fn, addr, sym.Addr)
	}
	return nil
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
