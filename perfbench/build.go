package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mcfi/internal/cfg"
	"mcfi/internal/codegen"
	"mcfi/internal/libc"
	"mcfi/internal/linker"
	"mcfi/internal/minic"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/sema"
	"mcfi/internal/toolchain"
	"mcfi/internal/verifier"
	"mcfi/internal/visa"
	"mcfi/internal/workload"
)

// build-cold: every pass takes the programs plus their Table 3 scaling
// modules from source to a loaded process — parse, sema and codegen per
// module, verifier.Verify on every instrumented object, libc from a fresh
// cache, link, and mrt.New (which publishes the first policy). No build
// store, no guest instructions. Each layer is called directly so its time
// can be attributed. An op is one unit built: libc (compiled and verified
// once per pass) or one program (from its first parse to its loaded
// process). Counting libc keeps the op count per pass odd, so the median
// op falls inside one program's cluster of build times rather than in the
// gap between two.

// buildProgram is one program's translation units.
type buildProgram struct {
	name string
	srcs []toolchain.Source
}

func buildSuite(sc scale) []buildProgram {
	var out []buildProgram
	for _, w := range workload.All() {
		if sc.buildPrograms != nil && !contains(sc.buildPrograms, w.Name) {
			continue
		}
		p := w.Gen
		p.Funcs = int(float64(p.Funcs) * sc.buildGenScale)
		p.FPTypes = max(1, int(float64(p.FPTypes)*sc.buildGenScale))
		p.Callers = int(float64(p.Callers) * sc.buildGenScale)
		p.Switches = int(float64(p.Switches) * sc.buildGenScale)
		out = append(out, buildProgram{name: w.Name, srcs: []toolchain.Source{
			w.RefSource(), workload.GenerateModule(w.Name, 42, p),
		}})
	}
	return out
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func buildKey(sc scale) string {
	names := "all"
	if sc.buildPrograms != nil {
		names = strings.Join(sc.buildPrograms, "+")
	}
	return fmt.Sprintf("build/%s/g%g", names, sc.buildGenScale)
}

func buildInputs(sc scale) []oracleInput {
	suite := buildSuite(sc)
	var parts []string
	for _, p := range suite {
		for _, s := range p.srcs {
			parts = append(parts, s.Name, s.Text)
		}
	}
	return []oracleInput{{
		key: buildKey(sc),
		src: digest(parts...),
		record: func() (expect, error) {
			r, err := buildPass(nil, suite, 0, true)
			return expect{CodeBytes: r.codeBytes, EQCs: r.eqcs}, err
		},
	}}
}

// passResult is what one pass produced.
type passResult struct {
	codeBytes int64         // instrumented image code, summed over the suite
	eqcs      int64         // equivalence classes, summed (extras only)
	instObj   int64         // instrumented object code bytes (extras only)
	baseObj   int64         // uninstrumented object code bytes (extras only)
	opMs      []float64     // libc's build, then each program's
	wall      time.Duration // the pass alone, without the extras
}

// buildPass runs one pass. With extras it also, after the pass span and
// inside a build.extras span, compiles every module uninstrumented (for
// codegen.instrument_ms and rewrite.code_growth) and calls cfg.Generate on
// every linked image.
func buildPass(tr *tracer, suite []buildProgram, trace uint64, extras bool) (passResult, error) {
	var r passResult
	var images []*linker.Image
	passStart := time.Now()
	pass := tr.begin("build.pass", 0, trace)

	b := toolchain.New(toolchain.WithInstrumentation(), toolchain.WithLibcCache(toolchain.NewLibcCache()))
	libcStart := time.Now()
	var lc *module.Object
	var err error
	tr.timed("toolchain.libc", pass, trace, func() { lc, err = b.Libc() })
	if err != nil {
		tr.end(pass)
		return r, fmt.Errorf("libc: %w", err)
	}
	tr.timed("verifier.verify", pass, trace, func() { err = verifier.Verify(lc) })
	if err != nil {
		tr.end(pass)
		return r, fmt.Errorf("verify libc: %w", err)
	}
	r.opMs = append(r.opMs, float64(time.Since(libcStart).Nanoseconds())/1e6)
	for _, p := range suite {
		t0 := time.Now()
		objs := make([]*module.Object, 0, len(p.srcs)+1)
		for _, s := range p.srcs {
			obj, err := compileTraced(tr, pass, trace, s)
			if err != nil {
				tr.end(pass)
				return r, err
			}
			if extras {
				r.instObj += int64(len(obj.Code))
			}
			tr.timed("verifier.verify", pass, trace, func() { err = verifier.Verify(obj) })
			if err != nil {
				tr.end(pass)
				return r, fmt.Errorf("verify %s: %w", s.Name, err)
			}
			objs = append(objs, obj)
		}
		var img *linker.Image
		tr.timed("linker.link", pass, trace, func() { img, err = linker.Link(append(objs, lc), linker.Options{}) })
		if err != nil {
			tr.end(pass)
			return r, fmt.Errorf("link %s: %w", p.name, err)
		}
		tr.timed("mrt.new", pass, trace, func() { _, err = mrt.New(img, mrt.Options{}) })
		if err != nil {
			tr.end(pass)
			return r, fmt.Errorf("load %s: %w", p.name, err)
		}
		r.opMs = append(r.opMs, float64(time.Since(t0).Nanoseconds())/1e6)
		r.codeBytes += int64(len(img.Code))
		if extras {
			images = append(images, img)
		}
	}
	tr.end(pass)
	r.wall = time.Since(passStart)

	if !extras {
		return r, nil
	}
	ext := tr.begin("build.extras", 0, trace)
	defer tr.end(ext)
	for _, p := range suite {
		for _, s := range p.srcs {
			// A fresh parse keeps the base compile independent of anything
			// the instrumented compile left on its unit.
			var file *minic.File
			var unit *sema.Unit
			tr.timed("base.parse", ext, trace, func() { file, err = minic.Parse(s.Name, libc.Header+"\n"+s.Text) })
			if err != nil {
				return r, err
			}
			tr.timed("base.analyze", ext, trace, func() { unit, err = sema.Analyze(file) })
			if err != nil {
				return r, err
			}
			var obj *module.Object
			tr.timed("codegen.compile_base", ext, trace, func() {
				obj, err = codegen.Compile(unit, codegen.Options{Profile: visa.Profile64, ModuleName: s.Name})
			})
			if err != nil {
				return r, err
			}
			r.baseObj += int64(len(obj.Code))
		}
	}
	for _, img := range images {
		in := cfg.Input{
			Funcs: img.Aux.Funcs, IBs: img.Aux.IBs,
			RetSites: img.Aux.RetSites, SetjmpConts: img.Aux.SetjmpConts,
			Annotations: img.Aux.AsmAnnotations, Profile: img.Profile,
		}
		var g *cfg.Graph
		tr.timed("cfg.generate", ext, trace, func() { g = cfg.Generate(in) })
		r.eqcs += int64(g.Stats.EQCs)
	}
	return r, nil
}

// compileTraced is an instrumenting toolchain.Builder.Compile with a span
// per layer.
func compileTraced(tr *tracer, parent int, trace uint64, s toolchain.Source) (*module.Object, error) {
	var file *minic.File
	var unit *sema.Unit
	var obj *module.Object
	var err error
	tr.timed("minic.parse", parent, trace, func() { file, err = minic.Parse(s.Name, libc.Header+"\n"+s.Text) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	tr.timed("sema.analyze", parent, trace, func() { unit, err = sema.Analyze(file) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	tr.timed("codegen.compile", parent, trace, func() {
		obj, err = codegen.Compile(unit, codegen.Options{Profile: visa.Profile64, Instrument: true, ModuleName: s.Name})
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	return obj, nil
}

type buildInstance struct {
	suite []buildProgram
}

func setupBuild(rc *runCtx) (instance, error) {
	return &buildInstance{suite: buildSuite(rc.sc)}, nil
}

func (bi *buildInstance) close() {}

func (bi *buildInstance) measure(rc *runCtx) error {
	want := rc.oracle[buildKey(rc.sc)]
	rng := rand.New(rand.NewSource(rc.seed))
	minPasses := 3
	if rc.sc.tiny {
		minPasses = 2
	}
	extras := rc.tr != nil
	var passMs []float64
	var last passResult
	deadline := time.Now().Add(rc.dur)
	var start time.Time
	var lastPass time.Duration
	// Pass 0 is warmup: it is checked, but it lets the heap reach its
	// working size before the steady passes are sampled.
	for n := 0; n < minPasses || !time.Now().Add(lastPass).After(deadline); n++ {
		if n == 1 {
			start = time.Now()
		}
		suite := append([]buildProgram(nil), bi.suite...)
		rng.Shuffle(len(suite), func(i, j int) { suite[i], suite[j] = suite[j], suite[i] })
		t0 := time.Now()
		r, err := buildPass(rc.tr, suite, uint64(n+1), extras)
		lastPass = time.Since(t0)    // with the extras, to predict the deadline
		ops := int64(len(suite)) + 1 // libc and the programs
		rc.attempted += ops
		switch {
		case err == nil && r.codeBytes != want.CodeBytes:
			err = fmt.Errorf("code bytes %d, want %d", r.codeBytes, want.CodeBytes)
		case err == nil && extras && r.eqcs != want.EQCs:
			err = fmt.Errorf("%d equivalence classes, want %d", r.eqcs, want.EQCs)
		}
		if err != nil {
			// A failed pass fails every op in it.
			rc.failed += ops - 1
			rc.fail(fmt.Errorf("pass %d: %w", n, err))
			continue
		}
		last = r
		if n == 0 {
			continue
		}
		passMs = append(passMs, float64(r.wall.Nanoseconds())/1e6)
		rc.lat = append(rc.lat, r.opMs...)
	}
	rc.wall = time.Since(start)
	fmt.Fprintf(rc.log, "build pass p50 %.3f s over %d passes, %d code bytes\n", median(passMs)/1e3, len(passMs), last.codeBytes)
	if !extras {
		return nil
	}

	// Per-layer metrics. The warmup pass's spans are in the trace too, so
	// per-pass figures divide by every pass the trace holds.
	self := rc.tr.selfTimes()
	ops := float64(rc.attempted)
	passes := float64(self["build.pass"].count)
	rc.set("build_s", median(passMs)/1e3)
	rc.set("code_bytes", float64(last.codeBytes))
	rc.set("cfg.eqcs", float64(last.eqcs))
	rc.set("rewrite.code_growth", ratio(float64(last.instObj), float64(last.baseObj)))
	rc.set("codegen.instrument_ms",
		float64(self["codegen.compile"].ns-self["codegen.compile_base"].ns)/1e6/ops)
	rc.set("build.unaccounted_ms", float64(self["build.pass"].ns)/1e6/ops)
	// The extras run outside the pass; their allocation is not the pass's.
	rc.set("build_alloc_mb", float64(self["build.pass"].alloc+sumAlloc(self, passLayers))/passes/(1<<20))
	var layers int64
	for _, n := range passLayers {
		layers += self[n].ns
	}
	fmt.Fprintf(rc.log, "per pass (mean): layers' self time %.1f ms + unaccounted %.1f ms = %.1f ms; build_s (median pass) %.1f ms\n",
		float64(layers)/1e6/passes, float64(self["build.pass"].ns)/1e6/passes,
		float64(layers+self["build.pass"].ns)/1e6/passes, median(passMs))
	return nil
}

// passLayers are the spans a pass is made of.
var passLayers = []string{
	"toolchain.libc", "verifier.verify", "minic.parse", "sema.analyze",
	"codegen.compile", "linker.link", "mrt.new",
}

func sumAlloc(self map[string]selfTotal, names []string) int64 {
	var s int64
	for _, n := range names {
		s += self[n].alloc
	}
	return s
}
