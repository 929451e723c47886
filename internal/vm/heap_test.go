package vm_test

import (
	"math"
	"runtime"
	"testing"

	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/vm"
	"mcfi/internal/workload"
)

// TestPageCacheHeapBytes: a page cache holds only the slots its page
// fills, so running an instrumented program costs the Go heap a bounded
// amount per code page it executes, not a slot per byte offset. Block
// compilation is off so the page caches are what the run allocates.
func TestPageCacheHeapBytes(t *testing.T) {
	w, _ := workload.ByName("mcf")
	img, err := toolchain.New(toolchain.WithInstrumentation()).Build(w.TestSource())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := mrt.New(img, mrt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Proc.SetJITThreshold(math.MaxInt64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if code, err := rt.Run(100_000_000); err != nil || code != 0 {
		t.Fatalf("mcf: code=%d err=%v", code, err)
	}
	runtime.ReadMemStats(&after)
	pages := vm.CachedPages(rt.Proc)
	if pages < 2 {
		t.Fatalf("the run cached %d code pages; the test measures nothing", pages)
	}
	const bound = 40 << 10
	perPage := (after.TotalAlloc - before.TotalAlloc) / uint64(pages)
	if perPage > bound {
		t.Errorf("running mcf allocated %d KiB of Go heap per cached code page (%d pages), bound %d KiB",
			perPage>>10, pages, bound>>10)
	} else {
		t.Logf("running mcf allocated %d KiB of Go heap per cached code page (%d pages)", perPage>>10, pages)
	}
}
