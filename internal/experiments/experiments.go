// Package experiments regenerates every table and figure of the
// paper's evaluation (§8) over the reproduction's workload suite. Each
// experiment returns structured rows; cmd/mcfi-bench renders them and
// the repository's bench_test.go wraps them in testing.B benchmarks.
//
// Cost metric: the primary measurement is retired guest instructions
// (deterministic, hardware-independent); MCFI's overhead is the extra
// instrumentation instructions executed, which is what the paper's
// wall-clock percentages reflect on real hardware.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mcfi/internal/air"
	"mcfi/internal/analyzer"
	"mcfi/internal/baseline"
	"mcfi/internal/buildstore"
	"mcfi/internal/cfg"
	"mcfi/internal/id"
	"mcfi/internal/libc"
	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/rop"
	"mcfi/internal/tables"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

// Config tunes experiment scale.
type Config struct {
	Profile visa.Profile
	// Work overrides each workload's iteration count (0 = reference).
	Work int
	// GenScale multiplies the Table 3 synthetic-module sizes
	// (1.0 approaches the paper's magnitudes; tests use less).
	GenScale float64
	// Engine selects the VM execution engine for workload runs
	// (default: the block compiler).
	Engine vm.Engine
	// Jobs bounds the worker pool fanning workloads per experiment and
	// the per-build compile concurrency (0 = GOMAXPROCS).
	Jobs int
	// Store, when non-nil, is the content-addressed build store every
	// experiment builder consults before compiling and publishes into —
	// re-running the suite against a warm store skips the builds.
	Store *buildstore.Tiered
}

func (c Config) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) work(w workload.Workload) toolchain.Source {
	return toolchain.Source{Name: w.Name, Text: w.SourceWithWork(c.Work)}
}

// builder returns the toolchain Builder for this config's flavor; libc
// is memoized process-wide, so the twelve workloads of an experiment
// compile it once per (profile, instrument) pair.
func (c Config) builder(instrument bool) *toolchain.Builder {
	return toolchain.New(
		toolchain.WithProfile(c.Profile),
		toolchain.WithInstrument(instrument),
		toolchain.WithJobs(c.jobs()),
		toolchain.WithStore(c.Store),
	)
}

// buildImage links one workload (optionally with its scaling module)
// against libc.
func buildImage(w workload.Workload, c Config, instrument, withGen bool) (*linker.Image, error) {
	srcs := []toolchain.Source{c.work(w)}
	if withGen && c.GenScale > 0 {
		p := w.Gen
		p.Funcs = int(float64(p.Funcs) * c.GenScale)
		p.FPTypes = maxInt(1, int(float64(p.FPTypes)*c.GenScale))
		p.Callers = int(float64(p.Callers) * c.GenScale)
		p.Switches = int(float64(p.Switches) * c.GenScale)
		srcs = append(srcs, workload.GenerateModule(w.Name, 42, p))
	}
	return c.builder(instrument).Build(srcs...)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// forEachWorkload runs fn over every workload on a bounded worker
// pool and returns the results in table order (workload.All order).
// The first error, in that same order, wins.
func forEachWorkload[T any](c Config, fn func(w workload.Workload) (T, error)) ([]T, error) {
	ws := workload.All()
	out := make([]T, len(ws))
	errs := make([]error, len(ws))
	sem := make(chan struct{}, c.jobs())
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w workload.Workload) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = fn(w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- E1: Fig. 5 — execution overhead, no concurrent updates ---

// OverheadRow is one bar of Fig. 5/6.
type OverheadRow struct {
	Name         string
	Baseline     int64 // retired instructions, uninstrumented
	MCFI         int64 // retired instructions, instrumented
	OverheadPct  float64
	Retries      int64   // check-transaction retries (Fig. 6 only)
	Updates      int64   // update transactions observed (Fig. 6 only)
	BaselineSecs float64 // wall time of the uninstrumented run
	MCFISecs     float64 // wall time of the instrumented run
}

// MinstrPerSec converts a (retired instructions, wall time) pair into
// the throughput metric reported by bench snapshots.
func MinstrPerSec(instret int64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(instret) / secs / 1e6
}

// runOnce executes one built image and returns retired instructions.
func (c Config) runOnce(img *linker.Image, during func(rt *mrt.Runtime, stop <-chan struct{})) (int64, *mrt.Runtime, error) {
	rt, err := mrt.New(img, mrt.Options{Engine: c.Engine})
	if err != nil {
		return 0, nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if during != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			during(rt, stop)
		}()
	}
	code, err := rt.Run(0)
	close(stop)
	wg.Wait()
	if err != nil {
		return 0, rt, err
	}
	if code != 0 {
		return 0, rt, fmt.Errorf("workload exited %d: %s", code, rt.Output())
	}
	return rt.Instret(), rt, nil
}

// Fig5 measures instrumentation overhead with no concurrent update
// transactions (paper Fig. 5). Workloads are fanned across the
// config's worker pool; rows keep table order.
func Fig5(c Config) ([]OverheadRow, error) {
	rows, err := forEachWorkload(c, func(w workload.Workload) (OverheadRow, error) {
		base, err := buildImage(w, c, false, false)
		if err != nil {
			return OverheadRow{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		inst, err := buildImage(w, c, true, false)
		if err != nil {
			return OverheadRow{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		t0 := time.Now()
		nb, _, err := c.runOnce(base, nil)
		bsecs := time.Since(t0).Seconds()
		if err != nil {
			return OverheadRow{}, fmt.Errorf("%s baseline: %w", w.Name, err)
		}
		t0 = time.Now()
		ni, _, err := c.runOnce(inst, nil)
		isecs := time.Since(t0).Seconds()
		if err != nil {
			return OverheadRow{}, fmt.Errorf("%s mcfi: %w", w.Name, err)
		}
		return OverheadRow{
			Name: w.Name, Baseline: nb, MCFI: ni,
			OverheadPct:  pct(ni, nb),
			BaselineSecs: bsecs, MCFISecs: isecs,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, averageRow(rows))
	return rows, nil
}

// Fig6 repeats the measurement with an update thread re-versioning all
// IDs at the given frequency (the paper uses 50 Hz, derived from V8's
// code-installation rate).
func Fig6(c Config, hz int) ([]OverheadRow, error) {
	if hz <= 0 {
		hz = 50
	}
	interval := time.Second / time.Duration(hz)
	rows, err := forEachWorkload(c, func(w workload.Workload) (OverheadRow, error) {
		base, err := buildImage(w, c, false, false)
		if err != nil {
			return OverheadRow{}, err
		}
		inst, err := buildImage(w, c, true, false)
		if err != nil {
			return OverheadRow{}, err
		}
		t0 := time.Now()
		nb, _, err := c.runOnce(base, nil)
		bsecs := time.Since(t0).Seconds()
		if err != nil {
			return OverheadRow{}, fmt.Errorf("%s baseline: %w", w.Name, err)
		}
		t0 = time.Now()
		ni, rt, err := c.runOnce(inst, func(rt *mrt.Runtime, stop <-chan struct{}) {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					rt.Tables.Reversion(tables.UpdateOpts{Parallel: true})
				}
			}
		})
		isecs := time.Since(t0).Seconds()
		if err != nil {
			return OverheadRow{}, fmt.Errorf("%s mcfi+updates: %w", w.Name, err)
		}
		return OverheadRow{
			Name: w.Name, Baseline: nb, MCFI: ni,
			OverheadPct:  pct(ni, nb),
			Retries:      rt.Tables.Retries(),
			Updates:      rt.Tables.Updates(),
			BaselineSecs: bsecs, MCFISecs: isecs,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, averageRow(rows))
	return rows, nil
}

func pct(inst, base int64) float64 {
	if base == 0 {
		return 0
	}
	return float64(inst-base) / float64(base) * 100
}

func averageRow(rows []OverheadRow) OverheadRow {
	avg := OverheadRow{Name: "average"}
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		avg.OverheadPct += r.OverheadPct
	}
	avg.OverheadPct /= float64(len(rows))
	return avg
}

// --- E4: space overhead (§8.1) ---

// SpaceRow reports static code-size increase and table sizes.
type SpaceRow struct {
	Name         string
	BaselineCode int
	MCFICode     int
	IncreasePct  float64
	TaryBytes    int // == covered code bytes (one word per 4 bytes)
	BaryBytes    int
}

// Space measures the static size cost of instrumentation.
func Space(c Config) ([]SpaceRow, error) {
	rows, err := forEachWorkload(c, func(w workload.Workload) (SpaceRow, error) {
		base, err := buildImage(w, c, false, false)
		if err != nil {
			return SpaceRow{}, err
		}
		inst, err := buildImage(w, c, true, false)
		if err != nil {
			return SpaceRow{}, err
		}
		nIBs := 0
		for _, ib := range inst.Aux.IBs {
			if ib.TLoadIOffset >= 0 {
				nIBs++
			}
		}
		return SpaceRow{
			Name:         w.Name,
			BaselineCode: len(base.Code),
			MCFICode:     len(inst.Code),
			IncreasePct:  pct(int64(len(inst.Code)), int64(len(base.Code))),
			TaryBytes:    len(inst.Code), // Tary is one 4-byte ID per 4 code bytes
			BaryBytes:    4 * nIBs,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var totB, totM int
	for _, r := range rows {
		totB += r.BaselineCode
		totM += r.MCFICode
	}
	rows = append(rows, SpaceRow{
		Name: "average", IncreasePct: pct(int64(totM), int64(totB)),
	})
	return rows, nil
}

// --- E5/E6: Tables 1 and 2 — the C1/C2 analyzer ---

// AnalyzerRow is one row of Tables 1 and 2.
type AnalyzerRow struct {
	Name string
	Rep  *analyzer.Report
}

// Tables12 runs the analyzer over every workload plus libc (§7).
func Tables12(c Config) ([]AnalyzerRow, error) {
	rows, err := forEachWorkload(c, func(w workload.Workload) (AnalyzerRow, error) {
		src := c.work(w)
		u, err := toolchain.New().Analyze(src)
		if err != nil {
			return AnalyzerRow{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep := analyzer.Analyze(u)
		rep.Name = w.Name
		rep.SLOC = analyzer.CountSLOC(src.Text)
		return AnalyzerRow{Name: w.Name, Rep: rep}, nil
	})
	if err != nil {
		return nil, err
	}
	u, err := toolchain.New(toolchain.WithoutPrelude()).
		Analyze(toolchain.Source{Name: "libc", Text: libc.Source})
	if err != nil {
		return nil, err
	}
	rep := analyzer.Analyze(u)
	rep.Name = "libc(musl)"
	rep.SLOC = analyzer.CountSLOC(libc.Source)
	rows = append(rows, AnalyzerRow{Name: "libc(musl)", Rep: rep})
	return rows, nil
}

// --- E7: Table 3 — CFG statistics ---

// CFGRow is one row of Table 3 for one profile.
type CFGRow struct {
	Name             string
	IBs, IBTs, EQCs  int
	GenerationTimeMs float64
}

// Table3 links each workload (with its scaling module) and reports the
// CFG statistics plus generation time (§8.2 reports ~150 ms for gcc).
func Table3(c Config) ([]CFGRow, error) {
	return forEachWorkload(c, func(w workload.Workload) (CFGRow, error) {
		img, err := buildImage(w, c, true, true)
		if err != nil {
			return CFGRow{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		in := cfg.Input{
			Funcs: img.Aux.Funcs, IBs: img.Aux.IBs,
			RetSites: img.Aux.RetSites, SetjmpConts: img.Aux.SetjmpConts,
			Annotations: img.Aux.AsmAnnotations, Profile: img.Profile,
		}
		start := time.Now()
		g := cfg.Generate(in)
		el := time.Since(start)
		return CFGRow{
			Name: w.Name, IBs: g.Stats.IBs, IBTs: g.Stats.IBTs,
			EQCs: g.Stats.EQCs, GenerationTimeMs: float64(el.Microseconds()) / 1000,
		}, nil
	})
}

// --- E8: AIR comparison (§8.3) ---

// AIRRow is one benchmark's AIR under every policy.
type AIRRow struct {
	Name   string
	Values map[string]float64 // policy name -> AIR
	Order  []string
}

// AIRTable computes the §8.3 comparison.
func AIRTable(c Config) ([]AIRRow, error) {
	return forEachWorkload(c, func(w workload.Workload) (AIRRow, error) {
		img, err := buildImage(w, c, true, true)
		if err != nil {
			return AIRRow{}, err
		}
		g := cfg.Generate(cfg.Input{
			Funcs: img.Aux.Funcs, IBs: img.Aux.IBs,
			RetSites: img.Aux.RetSites, SetjmpConts: img.Aux.SetjmpConts,
			Annotations: img.Aux.AsmAnnotations, Profile: img.Profile,
		})
		policies := baseline.Evaluate(img, g, len(img.Code))
		row := AIRRow{Name: w.Name, Values: map[string]float64{}}
		for _, p := range policies {
			row.Values[p.Name] = air.Compute(p.TargetSizes, len(img.Code))
			row.Order = append(row.Order, p.Name)
		}
		return row, nil
	})
}

// --- E9: ROP gadget elimination (§8.3) ---

// ROPRow reports gadget counts before/after hardening.
type ROPRow struct {
	Name     string
	Original int // unique gadgets in the baseline image
	// RawHardened counts gadget-shaped byte sequences in the hardened
	// image ignoring reachability (what rp++ sees on disk).
	RawHardened    int
	Usable         int // gadgets still reachable under MCFI's Tary policy
	EliminationPct float64
}

// ROP measures gadget elimination with the rp++-style finder.
func ROP(c Config) ([]ROPRow, error) {
	rows, err := forEachWorkload(c, func(w workload.Workload) (ROPRow, error) {
		base, err := buildImage(w, c, false, false)
		if err != nil {
			return ROPRow{}, err
		}
		inst, err := buildImage(w, c, true, false)
		if err != nil {
			return ROPRow{}, err
		}
		orig := rop.Find(base.Code, rop.DefaultMaxLen)

		g := cfg.Generate(cfg.Input{
			Funcs: inst.Aux.Funcs, IBs: inst.Aux.IBs,
			RetSites: inst.Aux.RetSites, SetjmpConts: inst.Aux.SetjmpConts,
			Annotations: inst.Aux.AsmAnnotations, Profile: inst.Profile,
		})
		hardened := rop.Find(inst.Code, rop.DefaultMaxLen)
		usable := rop.CountUsable(hardened, visa.CodeBase, func(addr int) bool {
			if addr%4 != 0 {
				return false
			}
			_, ok := g.TaryECN[addr]
			return ok
		})
		elim := rop.Elimination(len(orig), usable)
		return ROPRow{
			Name: w.Name, Original: len(orig), RawHardened: len(hardened),
			Usable: usable, EliminationPct: elim * 100,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var sumElim float64
	for _, r := range rows {
		sumElim += r.EliminationPct
	}
	rows = append(rows, ROPRow{
		Name:           "average",
		EliminationPct: sumElim / float64(len(rows)),
	})
	return rows, nil
}

// --- E3: the STM micro-benchmark (§8.1) ---

// STMRow is one synchronization strategy's measured check cost.
type STMRow struct {
	Name       string
	NsPerCheck float64
	Normalized float64 // relative to MCFI
}

// STM times the four check-transaction implementations under a
// concurrent re-versioning writer, reproducing the §8.1 table
// (MCFI 1 : TML 2 : RWL 29 : Mutex 22 on the paper's hardware; the
// ordering, not the constants, is the reproducible claim).
func STM(iters int, readers int, updateHz int) []STMRow {
	if iters <= 0 {
		iters = 2_000_000
	}
	if readers <= 0 {
		readers = 4
	}
	checkers := tables.NewCheckers(1<<16, 64, func(tb *tables.Tables) {
		tb.Update(func(addr int) int {
			if addr%64 == 0 {
				return addr/64%32 + 1
			}
			return -1
		}, func(i int) int {
			if i < 32 {
				return i + 1
			}
			return -1
		}, tables.UpdateOpts{})
	})
	var rows []STMRow
	for _, ck := range checkers {
		stop := make(chan struct{})
		var upd sync.WaitGroup
		if updateHz > 0 {
			upd.Add(1)
			go func() {
				defer upd.Done()
				tick := time.NewTicker(time.Second / time.Duration(updateHz))
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						ck.Reversion()
					}
				}
			}()
		}
		start := time.Now()
		var wg sync.WaitGroup
		per := iters / readers
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					b := (i + seed) % 32
					ck.Check(b, 64*b)
				}
			}(r)
		}
		wg.Wait()
		el := time.Since(start)
		close(stop)
		upd.Wait()
		rows = append(rows, STMRow{
			Name:       ck.Name(),
			NsPerCheck: float64(el.Nanoseconds()) / float64(per*readers),
		})
	}
	for i := range rows {
		rows[i].Normalized = rows[i].NsPerCheck / rows[0].NsPerCheck
	}
	return rows
}

// --- E10: CFG generation time at gcc scale ---

// CFGGen measures type-matching CFG generation on the largest linked
// input and returns (milliseconds, stats).
func CFGGen(c Config) (float64, cfg.Stats, error) {
	w, _ := workload.ByName("gcc")
	img, err := buildImage(w, c, true, true)
	if err != nil {
		return 0, cfg.Stats{}, err
	}
	in := cfg.Input{
		Funcs: img.Aux.Funcs, IBs: img.Aux.IBs,
		RetSites: img.Aux.RetSites, SetjmpConts: img.Aux.SetjmpConts,
		Annotations: img.Aux.AsmAnnotations, Profile: img.Profile,
	}
	const reps = 5
	start := time.Now()
	var g *cfg.Graph
	for i := 0; i < reps; i++ {
		g = cfg.Generate(in)
	}
	ms := float64(time.Since(start).Microseconds()) / 1000 / reps
	return ms, g.Stats, nil
}

// --- sanity helpers used by the harness ---

// VerifyIDEncoding double-checks the Fig. 2 invariants at run time
// (used by mcfi-bench -exp sanity).
func VerifyIDEncoding() error {
	d := id.Encode(12345, 678)
	if !d.Valid() || d.ECN() != 12345 || d.Version() != 678 {
		return fmt.Errorf("ID encoding broken: %08x", uint32(d))
	}
	if id.ID(0).Valid() {
		return fmt.Errorf("zero ID must be invalid")
	}
	return nil
}

// ModuleOf compiles one workload to an instrumented object (used by
// the verification sweep in mcfi-bench).
func ModuleOf(name string, c Config) (*module.Object, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return c.builder(true).Compile(c.work(w))
}
