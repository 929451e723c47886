// Race-hardening test for the check-fusing engine: an instrumented
// workload runs on blockjit, with compilation disabled and with a
// compile-eager threshold, while a host goroutine issues table update
// transactions as fast as it can — the dynamic-linking scenario,
// compressed. Under `go test -race` this exercises every interleaving
// of the engine's caches with the storm: the block-discard hook fires
// inside the update lock while guest threads read the discard floor
// lock-free, fused checks load the tables as they are rewritten, the
// bounded host retry loop hands version storms back to per-instruction
// stepping, and the fill path publishes handlers and scans folds past
// check spans against concurrent slot invalidation (on the threaded
// handlers alone); blocks are compiled, dispatched epoch-stamped,
// discarded and recompiled (with the eager threshold, so hot blocks
// are genuinely compiled). The differential assertion against the
// interpreter catches any of them changing what the guest computes.
package mcfi

import (
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

func TestEnginesUnderUpdateStorm(t *testing.T) {
	w, ok := workload.ByName("sjeng")
	if !ok {
		t.Fatal("sjeng workload missing")
	}
	img, err := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	).Build(w.TestSource())
	if err != nil {
		t.Fatal(err)
	}

	// Reference run: interp engine, no updates.
	ref := runWithEngine(t, img, vm.EngineInterp)

	for _, c := range []struct {
		engineConfig
		// check asserts what only this configuration's counters can
		// show, given the runtime that ran under the storm.
		check func(t *testing.T, img *linker.Image, storm *mrt.Runtime)
	}{
		{engineConfig: engineConfig{engine: vm.EngineBlockJIT, threshold: coldThreshold}},
		{engineConfig: engineConfig{engine: vm.EngineBlockJIT, threshold: 4}, check: checkBlockJITStorm},
	} {
		t.Run(c.String(), func(t *testing.T) {
			rt := c.start(t, img)
			stop := make(chan struct{})
			var wg sync.WaitGroup
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
			code, err := rt.Run(2_000_000_000)
			close(stop)
			wg.Wait()

			if err != nil {
				t.Fatalf("run under updates: %v (output %q)", err, rt.Output())
			}
			if code != ref.code || rt.Output() != ref.output {
				t.Errorf("under updates diverges from interp:\n  interp: code=%d out=%q\n  %s: code=%d out=%q",
					ref.code, ref.output, c.engineConfig, code, rt.Output())
			}
			if rt.Tables.Updates() < 2 {
				t.Logf("only %d updates raced the guest", rt.Tables.Updates())
			}
			if c.check != nil {
				c.check(t, img, rt)
			}

			// Without updates the retired count must be bit-identical: a
			// fused check retires exactly the instructions of the pass it
			// runs, a folded branch exactly the instruction it replaces,
			// a compiled block exactly the instructions it covers. (Under updates the retry counts are scheduling-
			// dependent in every engine, so only the quiet run is
			// compared.)
			quiet := runWithConfig(t, img, c.engineConfig)
			if quiet != ref {
				t.Errorf("without updates diverges from interp:\n  interp: code=%d instret=%d\n  %s: code=%d instret=%d",
					ref.code, ref.instret, c.engineConfig, quiet.code, quiet.instret)
			}
		})
	}
}

// checkBlockJITStorm requires that the storm compiled blocks, that the
// epoch bumps discarded some of them, and that a quiet run at the same
// threshold is block-dominated — it actually ran compiled.
func checkBlockJITStorm(t *testing.T, img *linker.Image, storm *mrt.Runtime) {
	st := storm.CheckStats()
	if st.JITBlocks == 0 {
		t.Errorf("no blocks compiled under the storm (threshold 4)")
	}
	if storm.Tables.Updates() >= 2 && st.JITDiscards == 0 {
		t.Errorf("%d update transactions bumped the epoch but no compiled block was discarded", storm.Tables.Updates())
	}
	t.Logf("storm: %d updates, %d blocks compiled, %d discarded, %d block runs / %d cold steps",
		storm.Tables.Updates(), st.JITBlocks, st.JITDiscards, st.JITBlockRuns, st.JITColdSteps)

	rtq, err := mrt.New(img, mrt.Options{Engine: vm.EngineBlockJIT})
	if err != nil {
		t.Fatal(err)
	}
	rtq.Proc.SetJITThreshold(4)
	if _, err := rtq.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	stq := rtq.CheckStats()
	if stq.JITBlockRuns == 0 || stq.JITBlockRuns < stq.JITColdSteps {
		t.Errorf("quiet blockjit run was not block-dominated: %d block runs vs %d cold steps",
			stq.JITBlockRuns, stq.JITColdSteps)
	}
}
