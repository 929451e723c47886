package vm_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
)

// The leak guest leaves non-zero bytes in every kind of page it can
// write: static data, the sbrk heap (malloc), an mmap region whose first
// page it then revokes, its main stack, a spawned thread's stack, and a
// dlopened library's code and data. Last, two 8-byte stores spill past
// the end of what is mapped: one at the end of a fresh mmap, which is
// the break, into a page no Protect ever reached; and one at the top of
// the stack region, into the guard band. It prints where.
const (
	leakMainSrc = `
long global_buf[512];
long fill(long *p, long n, long v) {
	for (long i = 0; i < n; i++) p[i] = v + i;
	return (long)p;
}
long worker(long v) {
	long local[600];
	return fill(local, 600, v);
}
int main(void) {
	long local[600];
	fill(local, 600, 11);
	fill(global_buf, 512, 22);
	long *h = (long *)malloc(65536);
	fill(h, 8192, 33);
	long *m = (long *)__sys2(SYS_MMAP, 65536, 3);
	fill(m, 8192, 44);
	if (__sys3(SYS_MPROTECT, (long)m, 4096, 0) != 0) return 1;
	long t = thread_spawn(worker, 55);
	long tstack = thread_join(t);
	long lib = dlopen("leaklib");
	if (lib == 0) return 2;
	long (*lf)(long) = (long (*)(long))dlsym(lib, "lib_fill");
	lf(66);
	long brk = __sys2(SYS_MMAP, 4096, 3) + 4096;
	*(long *)(brk - 4) = -1;
	long *top = (long *)(67108864 - 4);
	*top = (*top & 4294967295) | ((long)1515870810 << 32);
	printf("%ld %ld %ld %ld %ld %ld\n", (long)local, (long)global_buf, (long)h, (long)m, tstack, brk);
	return 0;
}`
	leakLibSrc = `
long lib_data[256];
long lib_fill(long v) {
	for (long i = 0; i < 256; i++) lib_data[i] = v + i;
	return 0;
}`
)

var zeroPage [vm.PageSize]byte

// firstDirtyPage returns the index of the first page of mem holding a
// non-zero byte, or -1.
func firstDirtyPage(mem []byte) int {
	for pg := 0; pg*vm.PageSize < len(mem); pg++ {
		if !bytes.Equal(mem[pg*vm.PageSize:(pg+1)*vm.PageSize], zeroPage[:]) {
			return pg
		}
	}
	return -1
}

// runLeakGuest runs the leak guest to completion, checks that it dirtied
// every page kind, and drops the runtime. It returns the first byte of
// the sandbox, to recognise the sandbox when it is handed out again.
func runLeakGuest(t *testing.T, img *linker.Image, lib *module.Object) *byte {
	t.Helper()
	rt, err := mrt.New(img, mrt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.RegisterLibrary(lib)
	if code, err := rt.Run(100_000_000); err != nil || code != 0 {
		t.Fatalf("leak guest: code=%d err=%v out=%q", code, err, rt.Output())
	}
	var stack, data, heap, mmapped, threadStack, brk int64
	if _, err := fmt.Sscan(rt.Output(), &stack, &data, &heap, &mmapped, &threadStack, &brk); err != nil {
		t.Fatalf("leak guest output %q: %v", rt.Output(), err)
	}
	libCode, _ := rt.Symbol("lib_fill")
	libData, _ := rt.Symbol("lib_data")
	for _, c := range []struct {
		what string
		addr int64
	}{
		{"main stack", stack}, {"static data", data}, {"sbrk heap", heap},
		{"revoked mmap page", mmapped}, {"thread stack", threadStack},
		{"library code", libCode.Addr}, {"library data", libData.Addr},
		{"spill past the break", brk}, {"spill into the guard band", visa.SandboxSize},
	} {
		pg := c.addr / vm.PageSize
		if pg <= 0 || firstDirtyPage(rt.Proc.Mem[pg*vm.PageSize:(pg+1)*vm.PageSize]) < 0 {
			t.Fatalf("the guest left the page of its %s (%#x) zero; the test checks nothing there", c.what, c.addr)
		}
	}
	return &rt.Proc.Mem[0]
}

// TestRecycledSandboxIsZero: a sandbox handed to a new Process after
// the last one became unreachable must read zero everywhere, guard page
// included, whatever the previous guest wrote.
func TestRecycledSandboxIsZero(t *testing.T) {
	b := toolchain.New(toolchain.WithInstrumentation())
	img, err := b.Build(toolchain.Source{Name: "leak", Text: leakMainSrc})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := b.Compile(toolchain.Source{Name: "leaklib", Text: leakLibSrc})
	if err != nil {
		t.Fatal(err)
	}
	// Release what earlier tests dropped, then empty the free list, so
	// the guest's sandbox is the only one released and stays mapped.
	free, _ := vm.SettleSandboxes()
	hold := make([]*vm.Process, free)
	for i := range hold {
		hold[i] = vm.NewProcess()
	}
	first := runLeakGuest(t, img, lib)
	if free, _ := vm.SettleSandboxes(); free != 1 {
		t.Fatalf("%d sandboxes free after releasing the guest's, want 1", free)
	}
	p := vm.NewProcess()
	if &p.Mem[0] != first {
		t.Fatal("the guest's released sandbox was not handed out again")
	}
	if pg := firstDirtyPage(p.Mem); pg >= 0 {
		t.Errorf("recycled sandbox page %#x is not zero: the previous guest's bytes leaked", pg*vm.PageSize)
	}
	runtime.KeepAlive(hold)
}

// TestHeldSandboxesStayBounded creates ten times the floor's worth of
// runtimes while a large live heap keeps the GC's own pacing from
// collecting the dropped ones: with no Process kept reachable,
// NewProcess's forced collections alone must keep the mapped but
// unreleased sandboxes within the floor.
func TestHeldSandboxesStayBounded(t *testing.T) {
	img, err := toolchain.New(toolchain.WithInstrument(false)).Build(
		toolchain.Source{Name: "tiny", Text: `int main(void) { return 7; }`})
	if err != nil {
		t.Fatal(err)
	}
	ballast := make([]byte, 256<<20)
	vm.SettleSandboxes()
	forced := forcedGCs()
	peak := 0
	for range 10 * vm.SandboxHeldMin {
		rt, err := mrt.New(img, mrt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if code, err := rt.Run(1_000_000); err != nil || code != 7 {
			t.Fatalf("code=%d err=%v", code, err)
		}
		peak = max(peak, vm.HeldSandboxes())
	}
	runtime.KeepAlive(ballast)
	if peak > vm.SandboxHeldMin {
		t.Errorf("%d sandboxes held at once, bound %d", peak, vm.SandboxHeldMin)
	}
	if forcedGCs() == forced {
		t.Error("no collection was forced: the loop never reached the bound")
	}
}

// TestReachableSandboxesDoNotForceEveryCollection keeps four times the
// floor's worth of Processes reachable at once, as a wide worker pool
// would. A forced collection frees none of them, so the held count
// that forces the next one doubles: two collections (at 16 and 32
// held), not one per NewProcess past the floor.
func TestReachableSandboxesDoNotForceEveryCollection(t *testing.T) {
	vm.SettleSandboxes()
	forced := forcedGCs()
	held := make([]*vm.Process, 4*vm.SandboxHeldMin)
	for i := range held {
		held[i] = vm.NewProcess()
	}
	if n := forcedGCs() - forced; n > 3 {
		t.Errorf("%d collections forced while creating %d reachable Processes, want at most 3", n, len(held))
	}
	runtime.KeepAlive(held)
}

func forcedGCs() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumForcedGC
}
