// Differential test of the VM execution engines: the block compiler,
// both as shipped and with compilation disabled (so every instruction
// runs on its threaded handler), must be observationally identical to
// the decode-every-instruction interpreter — same exit code, same
// output, and a bit-identical retired-instruction count — across every
// workload, both VISA profiles, and both instrumentation flavors. The
// engine list comes from vm.Engines(), so a newly added engine joins
// the matrix automatically.
package mcfi

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"mcfi/internal/linker"
	"mcfi/internal/mrt"
	"mcfi/internal/tables"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

type engineRun struct {
	code    int64
	output  string
	instret int64
}

// engineConfig is one way the differential tests run a guest: an
// engine and, for blockjit, its compile threshold.
type engineConfig struct {
	engine vm.Engine
	// threshold is the block-compile threshold: 0 for the default,
	// coldThreshold to disable compilation.
	threshold int64
}

// coldThreshold disables block compilation: blockjit then runs every
// instruction on its threaded handler, its cold path.
const coldThreshold = math.MaxInt64

func (c engineConfig) String() string {
	if c.threshold == coldThreshold {
		return c.engine.String() + "-cold"
	}
	return c.engine.String()
}

// start creates a runtime for img configured as c.
func (c engineConfig) start(t *testing.T, img *linker.Image) *mrt.Runtime {
	t.Helper()
	rt, err := mrt.New(img, mrt.Options{Engine: c.engine})
	if err != nil {
		t.Fatalf("engine %s: %v", c, err)
	}
	rt.Proc.SetJITThreshold(c.threshold)
	return rt
}

func runWithEngine(t *testing.T, img *linker.Image, e vm.Engine) engineRun {
	t.Helper()
	return runWithConfig(t, img, engineConfig{engine: e})
}

func runWithConfig(t *testing.T, img *linker.Image, c engineConfig) engineRun {
	t.Helper()
	rt := c.start(t, img)
	code, err := rt.Run(2_000_000_000)
	if err != nil {
		t.Fatalf("engine %s: %v (output %q)", c, err, rt.Output())
	}
	return engineRun{code: code, output: rt.Output(), instret: rt.Instret()}
}

// nonRefConfigs returns every engine except the reference interpreter,
// plus blockjit with compilation disabled.
func nonRefConfigs() []engineConfig {
	var cs []engineConfig
	for _, e := range vm.Engines() {
		if e != vm.EngineInterp {
			cs = append(cs, engineConfig{engine: e})
		}
	}
	return append(cs, engineConfig{engine: vm.EngineBlockJIT, threshold: coldThreshold})
}

// TestEnginesDifferential runs every workload under all engines in all
// four (profile, instrumentation) configurations.
func TestEnginesDifferential(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, profile := range []visa.Profile{visa.Profile64, visa.Profile32} {
				for _, instr := range []bool{false, true} {
					img, err := toolchain.New(
						toolchain.WithProfile(profile),
						toolchain.WithInstrument(instr),
					).Build(w.TestSource())
					if err != nil {
						t.Fatalf("%s instr=%v: build: %v", profile, instr, err)
					}
					// The workloads never dlopen, so one image can host
					// several runtimes.
					interp := runWithEngine(t, img, vm.EngineInterp)
					for _, e := range nonRefConfigs() {
						got := runWithConfig(t, img, e)
						if interp != got {
							t.Errorf("%s instr=%v: engines diverge:\n  interp: code=%d instret=%d out=%q\n  %s: code=%d instret=%d out=%q",
								profile, instr,
								interp.code, interp.instret, interp.output,
								e, got.code, got.instret, got.output)
						}
					}
					if interp.code != 0 {
						t.Errorf("%s instr=%v: exit %d (out %q)", profile, instr, interp.code, interp.output)
					}
				}
			}
		})
	}
}

// TestEnginesDifferentialDlopen runs a dynamically linked workload —
// guest dlopen, dlsym, a checked call into the library, and a call
// through an MCFI-instrumented PLT entry — under every engine and
// demands bit-identical results: the dlopen path's update
// transactions, code-page protection flips, and site rebasing must not
// perturb instret on any engine. A second pass repeats the run under a
// continuous host-side update-transaction storm, where retry counts
// are scheduling-dependent, so only exit code and output are compared.
func TestEnginesDifferentialDlopen(t *testing.T) {
	mainSrc := `
long ext_mul(long a, long b);
int main(void) {
	long h = dlopen("extlib");
	if (h == 0) return 1;
	long addr = dlsym(h, "ext_add");
	if (addr == 0) return 2;
	long (*fn)(long, long) = (long (*)(long, long))addr;
	long acc = 0;
	for (int i = 0; i < 200; i++) {
		acc += ext_mul(i, 3);      /* through the PLT entry */
		acc += fn(acc, i);         /* through a checked fn pointer */
	}
	printf("%ld\n", acc);
	return 0;
}`
	extSrc := `
long ext_mul(long a, long b) { return a * b; }
long ext_add(long a, long b) { return (a + b) & 0xFFFF; }
`
	cfg := toolchain.New(
		toolchain.WithInstrumentation(),
		toolchain.WithLinkOptions(linker.Options{AllowUnresolved: true}),
	)
	img, err := cfg.Build(toolchain.Source{Name: "main", Text: mainSrc})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := cfg.Compile(toolchain.Source{Name: "extlib", Text: extSrc})
	if err != nil {
		t.Fatal(err)
	}

	run := func(e engineConfig, storm bool) (engineRun, vm.CheckStats) {
		t.Helper()
		rt := e.start(t, img)
		rt.RegisterLibrary(ext)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if storm {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						rt.Tables.Reversion(tables.UpdateOpts{Parallel: true})
					}
				}
			}()
		}
		code, err := rt.Run(2_000_000_000)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("engine %s storm=%v: %v (output %q)", e, storm, err, rt.Output())
		}
		return engineRun{code: code, output: rt.Output(), instret: rt.Instret()},
			rt.Proc.CheckStatsSnapshot()
	}

	interp, _ := run(engineConfig{engine: vm.EngineInterp}, false)
	if interp.code != 0 {
		t.Fatalf("dlopen workload exits %d (output %q)", interp.code, interp.output)
	}
	for _, e := range nonRefConfigs() {
		got, st := run(e, false)
		if interp != got {
			t.Errorf("quiet dlopen run diverges:\n  interp: %+v\n  %s: %+v", interp, e, got)
		}
		// The PLT call sites must execute as fused superinstructions,
		// not per-instruction fallback.
		if st.PLTExecs == 0 {
			t.Errorf("engine %s: PLTExecs = 0, want > 0 (PLT checks fell back to per-instruction)", e)
		}
	}
	for _, e := range vm.Engines() {
		got, _ := run(engineConfig{engine: e}, true)
		if got.code != interp.code || got.output != interp.output {
			t.Errorf("dlopen run under update storm diverges on %s: code=%d output=%q (want code=%d output=%q)",
				e, got.code, got.output, interp.code, interp.output)
		}
	}
}

// TestEngineFlagParsing pins the -engine flag surface of mcfi-run and
// mcfi-bench to the vm package's parser.
func TestEngineFlagParsing(t *testing.T) {
	cases := []struct {
		in      string
		want    vm.Engine
		wantErr bool
	}{
		{"", vm.EngineBlockJIT, false}, // the default engine
		{"interp", vm.EngineInterp, false},
		{"blockjit", vm.EngineBlockJIT, false},
		{"threaded", 0, true},
		{"jit", 0, true},
	}
	for _, c := range cases {
		got, err := vm.ParseEngine(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseEngine(%q): err=%v, wantErr=%v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseEngine(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if fmt.Sprint(vm.Engines()) != "[interp blockjit]" {
		t.Errorf("engine names changed: %v", vm.EngineNames())
	}
	// The zero value — what a Process gets when SetEngine is never
	// called — is the default engine, blockjit.
	if vm.Engine(0) != vm.EngineBlockJIT {
		t.Errorf("zero-value engine = %v, want blockjit", vm.Engine(0))
	}
	// Every name in the shared list round-trips through the parser, and
	// the parse error enumerates exactly that list — the single source
	// CLI flags and server-side validation quote.
	for _, name := range vm.EngineNames() {
		e, err := vm.ParseEngine(name)
		if err != nil || e.String() != name {
			t.Errorf("EngineNames entry %q does not round-trip: %v %v", name, e, err)
		}
	}
	for _, name := range []string{"jit", "cached", "fused", "threaded"} {
		if _, err := vm.ParseEngine(name); err == nil || !strings.Contains(err.Error(), strings.Join(vm.EngineNames(), ", ")) {
			t.Errorf("ParseEngine(%q) error %v does not enumerate EngineNames()", name, err)
		}
	}
}
