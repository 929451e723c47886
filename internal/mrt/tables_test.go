package mrt_test

import (
	"runtime"
	"slices"
	"testing"

	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/workload"
)

// TestInitialPublishMatchesTransaction: New publishes the first policy
// straight into the zero table region; for every workload under both
// profiles that must leave the tables, their counters and the
// runtime's publication counts as a full update transaction over
// fresh tables does.
func TestInitialPublishMatchesTransaction(t *testing.T) {
	for _, prof := range []visa.Profile{visa.Profile32, visa.Profile64} {
		b := toolchain.New(toolchain.WithProfile(prof), toolchain.WithInstrumentation())
		for _, w := range workload.All() {
			img, err := b.Build(w.TestSource())
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, prof, err)
			}
			direct := newRT(t, img, mrt.Options{})
			txn := newRT(t, img, mrt.Options{})
			if err := mrt.RepublishByTransaction(txn); err != nil {
				t.Fatal(err)
			}
			dt, db := direct.Tables.Snapshot()
			tt, tb := txn.Tables.Snapshot()
			if !slices.Equal(dt, tt) || !slices.Equal(db, tb) {
				t.Errorf("%s/%v: New published %s, a transaction %s", w.Name, prof, direct.Tables, txn.Tables)
			}
			d, x := direct.Tables, txn.Tables
			if d.Version() != x.Version() || d.Updates() != x.Updates() ||
				d.UpdatesSinceQuiescence() != x.UpdatesSinceQuiescence() {
				t.Errorf("%s/%v: New left version %d, updates %d, since quiescence %d; a transaction %d, %d, %d",
					w.Name, prof, d.Version(), d.Updates(), d.UpdatesSinceQuiescence(),
					x.Version(), x.Updates(), x.UpdatesSinceQuiescence())
			}
			dd, df := direct.PublishStats()
			xd, xf := txn.PublishStats()
			if dd != xd || df != xf {
				t.Errorf("%s/%v: New counted %d delta, %d full publications; a transaction %d, %d",
					w.Name, prof, dd, df, xd, xf)
			}
		}
	}
}

// TestRuntimeNewHeapBytes: the ID tables live in the sandbox mapping,
// so an instrumented runtime's setup allocates on the Go heap only what
// the CFG and the runtime's bookkeeping need — not a 4 MiB Tary, and
// no page-protection or instruction-cache table sized by the whole
// sandbox. (The bound also covers the sandbox struct that mrt.New
// allocates when the warm-up's sandbox is not yet released.)
func TestRuntimeNewHeapBytes(t *testing.T) {
	w, _ := workload.ByName("gcc")
	img, err := toolchain.New(toolchain.WithInstrumentation()).Build(w.TestSource())
	if err != nil {
		t.Fatal(err)
	}
	newRT(t, img, mrt.Options{}) // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt := newRT(t, img, mrt.Options{})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rt)
	const bound = 320 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Errorf("instrumented gcc mrt.New allocated %d KiB of Go heap, bound %d KiB", got>>10, bound>>10)
	} else {
		t.Logf("instrumented gcc mrt.New allocated %d KiB of Go heap", got>>10)
	}
}
