package vm

import (
	"sync"
	"testing"

	"mcfi/internal/visa"
)

// runToHalt executes a fresh thread at CodeBase until the HLT fault
// and returns R0 (the probe value the code computed).
func runToHalt(t *testing.T, p *Process) int64 {
	t.Helper()
	th := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
	err := th.Run(4096)
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultCFI {
		t.Fatalf("expected HLT fault, got %v", err)
	}
	return th.Reg[visa.R0]
}

func emitProbe(imm int64) []byte {
	var code []byte
	code = visa.Encode(code, visa.Instr{Op: visa.MOVI, R1: visa.R0, Imm: imm})
	code = visa.Encode(code, visa.Instr{Op: visa.HLT})
	return code
}

// TestDecodeCacheInvalidation is the jitsim regression: code runs from
// a page, the page is made writable and rewritten (a JIT installing a
// new stage), then flipped back to executable — exactly the
// write-page-then-mprotect-to-exec cycle of examples/jitsim and the
// dlopen path. The default engine's instruction cache must never
// execute the stale predecoded instructions.
func TestDecodeCacheInvalidation(t *testing.T) {
	p := NewProcess()
	p.Protect(visa.DataBase, 1<<16, visa.ProtRead|visa.ProtWrite)

	copy(p.Mem[visa.CodeBase:], emitProbe(111))
	p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
	if got := runToHalt(t, p); got != 111 {
		t.Fatalf("first run: R0 = %d, want 111", got)
	}

	// JIT cycle: write page -> mprotect to exec.
	p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtWrite)
	copy(p.Mem[visa.CodeBase:], emitProbe(222))
	p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
	if got := runToHalt(t, p); got != 222 {
		t.Fatalf("after rewrite: R0 = %d, want 222 (stale decode cache?)", got)
	}
}

// TestDecodeCacheInvalidationSpanningPage rewrites only the second of
// two pages when a cached instruction starts on the first and its
// immediate extends into the second. Invalidating the written page
// alone would leave the stale instruction cached under the first page,
// so Protect must also drop the preceding page.
func TestDecodeCacheInvalidationSpanningPage(t *testing.T) {
	p := NewProcess()
	p.Protect(visa.DataBase, 1<<16, visa.ProtRead|visa.ProtWrite)

	// Pad with NOPs so the 10-byte MOVI starts 5 bytes before the page
	// boundary: opcode+reg on page 0, the imm64 split across both.
	pageEnd := int64(visa.CodeBase) + PageSize - int64(visa.CodeBase%PageSize)
	probe := emitProbe(0x1111_2222_3333_4444)
	start := pageEnd - 5
	for a := int64(visa.CodeBase); a < start; a++ {
		p.Mem[a] = byte(visa.NOP)
	}
	copy(p.Mem[start:], probe)
	p.Protect(visa.CodeBase, 2*PageSize, visa.ProtRead|visa.ProtExec)
	if got := runToHalt(t, p); got != 0x1111_2222_3333_4444 {
		t.Fatalf("first run: R0 = %#x", got)
	}

	// Rewrite ONLY the second page: the 5 immediate bytes that landed
	// there (the HLT right after them stays intact).
	p.Protect(pageEnd, PageSize, visa.ProtRead|visa.ProtWrite)
	for i := int64(0); i < 5; i++ {
		p.Mem[pageEnd+i] = 0x55
	}
	p.Protect(pageEnd, PageSize, visa.ProtRead|visa.ProtExec)
	got := runToHalt(t, p)
	// The low 3 immediate bytes live on page 0 and are unchanged; the
	// 5 bytes on page 1 now read 0x55.
	want := int64(0x5555_5555_5533_4444)
	if got != want {
		t.Fatalf("after partial rewrite: R0 = %#x, want %#x (stale spanning instruction?)", got, want)
	}
}

// TestEnginesRetireIdenticalStreams runs the same program under every
// engine and checks the retired-instruction count and final registers
// are bit-identical to the interpreter's (the Fig. 5/6 metric is
// engine-independent).
func TestEnginesRetireIdenticalStreams(t *testing.T) {
	// A loop: R1 counts down from 100, R2 accumulates.
	a := visa.NewAsm()
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R1, Imm: 100})
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R2, Imm: 0})
	a.Label("loop")
	a.Emit(visa.Instr{Op: visa.ADD, R1: visa.R2, R2: visa.R1})
	a.Emit(visa.Instr{Op: visa.ADDI, R1: visa.R1, Imm: -1})
	a.Emit(visa.Instr{Op: visa.CMPI, R1: visa.R1, Imm: 0})
	a.EmitBranch(visa.JNE, "loop")
	a.Emit(visa.Instr{Op: visa.HLT})
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}

	run := func(e Engine) (int64, int64) {
		p := NewProcess()
		useEngine(p, e)
		copy(p.Mem[visa.CodeBase:], a.Code)
		p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
		p.Protect(visa.DataBase, 1<<16, visa.ProtRead|visa.ProtWrite)
		th := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
		err := th.Run(10_000)
		if f, ok := err.(*Fault); !ok || f.Kind != FaultCFI {
			t.Fatalf("engine %s: %v", e, err)
		}
		return th.Instret, th.Reg[visa.R2]
	}
	ii, is := run(EngineInterp)
	if is != 5050 {
		t.Fatalf("interp sum = %d, want 5050", is)
	}
	for _, e := range testEngines() {
		if ei, es := run(e); ei != ii || es != is {
			t.Errorf("engines diverge: %s (instret=%d sum=%d) vs interp (instret=%d sum=%d)",
				e, ei, es, ii, is)
		}
	}
}

// fillRaceCode is a page of straight-line code — a varied run of
// register, push and pop instructions — inside a loop that runs it
// rounds times, then halts. Every thread that runs it fills and
// dispatches the same slots and compiles the same blocks.
func fillRaceCode(t *testing.T, rounds int64) []byte {
	t.Helper()
	a := visa.NewAsm()
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R6, Imm: rounds})
	a.Label("loop")
	for i := int64(0); a.Pos() < PageSize-64; i++ {
		r := visa.R1 + byte(i%4)
		switch i % 5 {
		case 0:
			a.Emit(visa.Instr{Op: visa.ADDI, R1: r, Imm: i})
		case 1:
			a.Emit(visa.Instr{Op: visa.XOR, R1: r, R2: r + 1})
		case 2:
			a.Emit(visa.Instr{Op: visa.PUSH, R1: r})
		case 3:
			a.Emit(visa.Instr{Op: visa.POP, R1: r + 1})
		case 4:
			a.Emit(visa.Instr{Op: visa.NOP})
		}
	}
	a.Emit(visa.Instr{Op: visa.ADDI, R1: visa.R6, Imm: -1})
	a.Emit(visa.Instr{Op: visa.CMPI, R1: visa.R6, Imm: 0})
	a.EmitBranch(visa.JNE, "loop")
	a.Emit(visa.Instr{Op: visa.HLT})
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(a.Code) > PageSize-int(visa.CodeBase%PageSize) {
		t.Fatalf("%d code bytes do not fit the page", len(a.Code))
	}
	return a.Code
}

// TestPageCacheConcurrentFill starts many guest threads on one page at
// once, so they fill its slots, allocate its slot chunks, dispatch from
// them and compile its blocks concurrently. Under -race this pins the
// page cache's publication order: a slot's index entry and chunk are
// written before its valid bit, and read only after it. Every thread
// must retire what the interpreter retires.
func TestPageCacheConcurrentFill(t *testing.T) {
	const threads, rounds = 8, 40
	code := fillRaceCode(t, rounds)
	stack := func(i int) int64 { return visa.DataBase + int64(i+1)<<12 }
	run := func(e Engine, n int) []*Thread {
		p := NewProcess()
		useEngine(p, e)
		p.SetJITThreshold(4)
		copy(p.Mem[visa.CodeBase:], code)
		p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
		p.Protect(visa.DataBase, int64(n+1)<<12, visa.ProtRead|visa.ProtWrite)
		ths := make([]*Thread, n)
		errs := make([]error, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range ths {
			ths[i] = p.NewThread(visa.CodeBase, stack(i))
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = ths[i].Run(1 << 24)
			}()
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if f, ok := err.(*Fault); !ok || f.Kind != FaultCFI {
				t.Fatalf("%s thread %d: %v, want the final hlt", e, i, err)
			}
		}
		return ths
	}
	ref := run(EngineInterp, 1)[0]
	for _, e := range []Engine{EngineBlockJIT, engineCold} {
		for i, th := range run(e, threads) {
			if th.Instret != ref.Instret || th.PC != ref.PC || th.Reg[visa.R1] != ref.Reg[visa.R1] || th.Reg[visa.R4] != ref.Reg[visa.R4] {
				t.Errorf("%s thread %d: instret=%d pc=%#x r1=%d r4=%d, interp instret=%d pc=%#x r1=%d r4=%d",
					e, i, th.Instret, th.PC, th.Reg[visa.R1], th.Reg[visa.R4],
					ref.Instret, ref.PC, ref.Reg[visa.R1], ref.Reg[visa.R4])
			}
		}
	}
}

// TestEnginesAboveCodeRegion runs code that lives above the instruction
// cache's range (taryCodeLimit): a loop in the code region calls a
// function placed in the data region, which the blockjit engine fetches
// uncached on every execution, until a store faults there. Every engine
// must stop with the interpreter's fault, fault PC, retired count and
// registers, and nothing above the range may be cached or compiled.
func TestEnginesAboveCodeRegion(t *testing.T) {
	const hi = taryCodeLimit + 4*PageSize
	var fn []byte
	fn = visa.Encode(fn, visa.Instr{Op: visa.ADDI, R1: visa.R1, Imm: 1})
	fn = visa.Encode(fn, visa.Instr{Op: visa.PUSH, R1: visa.R1})
	fn = visa.Encode(fn, visa.Instr{Op: visa.POP, R1: visa.R2})
	fn = visa.Encode(fn, visa.Instr{Op: visa.CMPI, R1: visa.R1, Imm: 300})
	fn = visa.Encode(fn, visa.Instr{Op: visa.JL, Imm: int64(visa.ST64.Size())})
	faultAt := hi + int64(len(fn))
	fn = visa.Encode(fn, visa.Instr{Op: visa.ST64, R1: visa.R1, R2: visa.R3})
	fn = visa.Encode(fn, visa.Instr{Op: visa.RET})

	a := visa.NewAsm()
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R1, Imm: 0})
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R3, Imm: hi})
	a.Label("loop")
	callNext := int64(visa.CodeBase + a.Pos() + visa.CALL.Size())
	a.Emit(visa.Instr{Op: visa.CALL, Imm: hi - callNext})
	a.EmitBranch(visa.JMP, "loop")
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		err         string
		pc, instret int64
		r1, r2, sp  int64
		fills       int64
		hiBlocks    bool
	}
	run := func(e Engine) outcome {
		p := NewProcess()
		useEngine(p, e)
		p.SetJITThreshold(4)
		copy(p.Mem[visa.CodeBase:], a.Code)
		copy(p.Mem[hi:], fn)
		p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
		p.Protect(visa.DataBase, 1<<16, visa.ProtRead|visa.ProtWrite)
		p.Protect(hi, PageSize, visa.ProtRead|visa.ProtExec)
		th := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
		err := th.Run(1 << 20)
		f, ok := err.(*Fault)
		if !ok || f.Kind != FaultMem || f.PC != faultAt {
			t.Fatalf("%s: %v, want a memory fault at %#x", e, err, faultAt)
		}
		st := p.CheckStatsSnapshot()
		return outcome{
			err: err.Error(), pc: th.PC, instret: th.Instret,
			r1: th.Reg[visa.R1], r2: th.Reg[visa.R2], sp: th.Reg[visa.SP],
			fills: st.ICacheFills, hiBlocks: p.compiledBlockAt(hi) != nil,
		}
	}
	ref := run(EngineInterp)
	for _, e := range testEngines() {
		if e == EngineInterp {
			continue
		}
		got := run(e)
		if got.err != ref.err || got.pc != ref.pc || got.instret != ref.instret ||
			got.r1 != ref.r1 || got.r2 != ref.r2 || got.sp != ref.sp {
			t.Errorf("%s: %+v, interp %+v", e, got, ref)
		}
		if got.hiBlocks {
			t.Errorf("%s compiled a block above the cached range", e)
		}
		// Each of the 300 calls fetches the function's instructions
		// afresh: nothing above the range stays cached.
		if got.fills < 300*5 {
			t.Errorf("%s: %d icache fills, want every execution above the range to fetch afresh", e, got.fills)
		}
	}
}
