package vm

import (
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
