// Tests for the delta update-transaction path (incremental CFG merge
// + tables.UpdateDelta): a dlopen storm publishes per-module deltas
// while 64 host-side checker goroutines race the tables under the
// version-compare retry protocol, and the resulting policy is checked
// verdict-for-verdict against the full-rebuild baseline. Run with
// `go test -race` this exercises the §5.2 concurrency claim at scale:
// partial publication must never produce a spurious violation or an
// unbounded retry loop, and execution must stay bit-identical across
// every engine and both publication strategies.
package mcfi

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mcfi/internal/id"
	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/tables"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
)

const deltaPlugins = 8

// deltaWorkload builds a host program that dlopens deltaPlugins
// libraries one by one, resolves a function from each, and hammers it
// through a checked function pointer — the dlopen-storm guest.
func deltaWorkload(t *testing.T) (*linker.Image, []*module.Object) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("int main(void) {\n\tlong acc = 0;\n")
	for i := 0; i < deltaPlugins; i++ {
		fmt.Fprintf(&sb, `
	long h%d = dlopen("p%d");
	if (h%d == 0) return %d;
	long a%d = dlsym(h%d, "p%d_fn");
	if (a%d == 0) return %d;
	long (*f%d)(long) = (long (*)(long))a%d;
	for (int i%d = 0; i%d < 400; i%d++) acc += f%d(i%d);
`, i, i, i, 10+i, i, i, i, i, 20+i, i, i, i, i, i, i, i)
	}
	sb.WriteString("\tprintf(\"%ld\\n\", acc);\n\treturn 0;\n}\n")

	b := toolchain.New(toolchain.WithProfile(visa.Profile64), toolchain.WithInstrumentation())
	img, err := b.Build(toolchain.Source{Name: "deltahost", Text: sb.String()})
	if err != nil {
		t.Fatal(err)
	}
	var plugins []*module.Object
	for i := 0; i < deltaPlugins; i++ {
		src := fmt.Sprintf(`
long p%d_state = %d;
long p%d_fn(long x) { return x * p%d_state + %d; }
long p%d_aux(long x) { return x - %d; }
`, i, i+3, i, i, i, i, i)
		obj, err := b.Compile(toolchain.Source{Name: fmt.Sprintf("p%d", i), Text: src})
		if err != nil {
			t.Fatal(err)
		}
		plugins = append(plugins, obj)
	}
	return img, plugins
}

func runDelta(t *testing.T, img *linker.Image, plugins []*module.Object, opts mrt.Options) (*mrt.Runtime, engineRun) {
	t.Helper()
	rt, err := mrt.New(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plugins {
		rt.RegisterLibrary(p)
	}
	code, err := rt.Run(2_000_000_000)
	if err != nil {
		t.Fatalf("run (opts %+v): %v (output %q)", opts, err, rt.Output())
	}
	return rt, engineRun{code: code, output: rt.Output(), instret: rt.Instret()}
}

// TestDeltaPathBitIdenticalToFullRebuild: the same dlopen storm run
// through delta publication and through the ForceFullCFG baseline must
// be bit-identical (code, output, instret) on every engine, and the
// delta runtime must actually have taken the delta path.
func TestDeltaPathBitIdenticalToFullRebuild(t *testing.T) {
	img, plugins := deltaWorkload(t)

	_, ref := runDelta(t, img, plugins, mrt.Options{Engine: vm.EngineInterp, ForceFullCFG: true})
	if ref.code != 0 {
		t.Fatalf("reference run exited %d (output %q)", ref.code, ref.output)
	}
	for _, e := range vm.Engines() {
		rt, got := runDelta(t, img, plugins, mrt.Options{Engine: e})
		if got != ref {
			t.Errorf("engine %s delta path diverges from full-rebuild interp:\n  ref: %+v\n  got: %+v", e, ref, got)
		}
		delta, full := rt.PublishStats()
		// Every dlopen and every first dlsym of a not-yet-taken
		// function should publish incrementally; only the initial
		// policy is a full build.
		if delta < deltaPlugins {
			t.Errorf("engine %s: only %d delta publications (want >= %d); %d full", e, delta, deltaPlugins, full)
		}
		if full != 1 {
			t.Errorf("engine %s: %d full publications, want 1 (the initial policy)", e, full)
		}
	}

	// The baseline knob really disables the delta path.
	rtFull, _ := runDelta(t, img, plugins, mrt.Options{ForceFullCFG: true})
	d, f := rtFull.PublishStats()
	if d != 0 || f < deltaPlugins {
		t.Errorf("ForceFullCFG run published %d deltas / %d full, want 0 / >= %d", d, f, deltaPlugins)
	}
}

// TestDeltaVerdictsMatchFullRebuild compares the published policies
// verdict-for-verdict: after the storm, every (branch, target) pair
// must get the same Pass/Violation answer from the delta-built tables
// and the full-rebuilt tables, even though their ECN numbering and
// version words differ.
func TestDeltaVerdictsMatchFullRebuild(t *testing.T) {
	img, plugins := deltaWorkload(t)
	rtD, _ := runDelta(t, img, plugins, mrt.Options{})
	rtF, _ := runDelta(t, img, plugins, mrt.Options{ForceFullCFG: true})

	taryD, baryD := rtD.Tables.Snapshot()
	taryF, baryF := rtF.Tables.Snapshot()

	var targets []int
	for w := range taryD {
		dv, fv := id.ID(taryD[w]).Valid(), id.ID(taryF[w]).Valid()
		if dv != fv {
			t.Fatalf("target validity diverges at %#x: delta %v, full %v", w*4, dv, fv)
		}
		if dv {
			targets = append(targets, w*4)
		}
	}
	var branches []int
	for i := range baryD {
		dv, fv := id.ID(baryD[i]).Valid(), id.ID(baryF[i]).Valid()
		if dv != fv {
			t.Fatalf("branch validity diverges at index %d: delta %v, full %v", i, dv, fv)
		}
		if dv {
			branches = append(branches, i)
		}
	}
	if len(targets) == 0 || len(branches) == 0 {
		t.Fatalf("empty policy: %d targets, %d branches", len(targets), len(branches))
	}
	mismatches := 0
	for _, b := range branches {
		for _, a := range targets {
			got := rtD.Tables.Check(b, a)
			want := rtF.Tables.Check(b, a)
			if got != want {
				mismatches++
				if mismatches <= 10 {
					t.Errorf("verdict diverges: branch %d target %#x: delta %v, full %v", b, a, got, want)
				}
			}
		}
	}
	if mismatches > 0 {
		t.Errorf("%d of %d verdicts diverge", mismatches, len(branches)*len(targets))
	}
	t.Logf("compared %d branches x %d targets", len(branches), len(targets))
}

// TestHostCheckersRaceDeltaStorm is the §5.2 concurrency claim at
// scale: 64 host-side Check loops spin on known-valid (branch, target)
// pairs while the guest performs its dlopen storm (delta update
// transactions) and a host goroutine layers Reversion transactions on
// top. The incremental path never moves a published target to a
// different class and publishes deltas version-neutrally, so no
// checker may ever observe a spurious violation, and once the storm
// is over every harvested pair must pass without a retry (version skew
// left behind would retry forever).
func TestHostCheckersRaceDeltaStorm(t *testing.T) {
	img, plugins := deltaWorkload(t)
	rt, err := mrt.New(img, mrt.Options{ParallelCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plugins {
		rt.RegisterLibrary(p)
	}

	// Harvest valid (branch index, target) pairs from the initial
	// policy: a Bary word with a matching Tary word is a pair that
	// stays legal forever (deltas never re-class published targets).
	tary, bary := rt.Tables.Snapshot()
	type pair struct{ idx, target int }
	var pairs []pair
	for i, bw := range bary {
		if !id.ID(bw).Valid() {
			continue
		}
		for w, tw := range tary {
			if tw == bw {
				pairs = append(pairs, pair{idx: i, target: w * 4})
				break
			}
		}
		if len(pairs) >= 16 {
			break
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no valid (branch, target) pairs in the initial policy")
	}

	const checkers = 64
	var (
		violations atomic.Int64
		checks     atomic.Int64
		stop       = make(chan struct{})
		wg         sync.WaitGroup
	)
	for c := 0; c < checkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, pr := range pairs {
					if rt.Tables.Check(pr.idx, pr.target) != tables.Pass {
						violations.Add(1)
					}
					checks.Add(1)
				}
			}
		}()
	}
	// Reversion storm on top of the dlopen storm, throttled so the ABA
	// guard never refuses the guest's dlopens.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rt.Tables.UpdatesSinceQuiescence() < 512 {
				rt.Tables.Reversion(tables.UpdateOpts{Parallel: true})
			}
		}
	}()

	code, err := rt.Run(2_000_000_000)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("guest under checker storm: %v (output %q)", err, rt.Output())
	}
	if code != 0 {
		t.Fatalf("guest exited %d (output %q)", code, rt.Output())
	}
	if v := violations.Load(); v != 0 {
		t.Errorf("%d spurious violations out of %d host checks", v, checks.Load())
	}
	delta, full := rt.PublishStats()
	if delta < deltaPlugins {
		t.Errorf("storm took the full path: %d delta / %d full publications", delta, full)
	}
	// Retries during the storm are scheduling-dependent — a checker
	// legitimately spins for as long as an update transaction is in
	// flight — so their count is bounded by nothing a slow schedule
	// cannot inflate. The tables are quiescent now, though: every
	// harvested pair must pass on the fast path, branch ID equal to
	// target ID, so Check returns without a single retry. Version skew
	// left behind by a delta publication (the failure the
	// version-neutral delta design prevents) would instead retry
	// forever; comparing the IDs first keeps that a failure, not a hang.
	updates := rt.Tables.Updates()
	retries := rt.Tables.Retries()
	for _, pr := range pairs {
		if bid, tid := rt.Tables.BaryID(pr.idx), rt.Tables.TaryID(pr.target); bid != tid {
			t.Errorf("quiescent pair (branch %d, target %#x): branch ID %#x, target ID %#x",
				pr.idx, pr.target, uint32(bid), uint32(tid))
		} else if v := rt.Tables.Check(pr.idx, pr.target); v != tables.Pass {
			t.Errorf("quiescent pair (branch %d, target %#x): %v", pr.idx, pr.target, v)
		}
	}
	if r := rt.Tables.Retries(); r != retries {
		t.Errorf("quiescent checks retried %d times", r-retries)
	}
	t.Logf("storm: %d checks, %d updates (%d delta), %d retries",
		checks.Load(), updates, delta, rt.Tables.Retries())
}
