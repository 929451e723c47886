package vm

import (
	"errors"
	"hash/fnv"
	"testing"

	"mcfi/internal/visa"
)

// emitCountLoop emits a loop that increments R1 `iters` times (two
// ADDIs per iteration plus a fused-able CMPI+JNE backedge) and then
// halts — enough straight-line body for the block compiler to bind
// pure steps and the compare+jcc peephole.
func emitCountLoop(iters int64) []byte {
	var code []byte
	code = visa.Encode(code, visa.Instr{Op: visa.MOVI, R1: visa.R1, Imm: 0})
	loop := int64(len(code))
	code = visa.Encode(code, visa.Instr{Op: visa.ADDI, R1: visa.R1, Imm: 1})
	code = visa.Encode(code, visa.Instr{Op: visa.ADDI, R1: visa.R1, Imm: 1})
	code = visa.Encode(code, visa.Instr{Op: visa.CMPI, R1: visa.R1, Imm: 2 * iters})
	// Backedge displacement is relative to the jcc's continuation.
	end := int64(len(code)) + int64(visa.JNE.Size())
	code = visa.Encode(code, visa.Instr{Op: visa.JNE, Imm: loop - end})
	code = visa.Encode(code, visa.Instr{Op: visa.HLT})
	return code
}

// newLoopProcess loads the counting loop at CodeBase under the given
// engine with a compile-on-first-execution threshold.
func newLoopProcess(e Engine, iters int64) *Process {
	p := NewProcess()
	p.SetEngine(e)
	p.SetJITThreshold(1)
	copy(p.Mem[visa.CodeBase:], emitCountLoop(iters))
	p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
	p.Protect(visa.DataBase, 1<<16, visa.ProtRead|visa.ProtWrite)
	return p
}

// TestBlockJITCompilesAndMatchesInterp runs the loop hot enough to
// compile and requires bit-identical architectural results against
// the reference interpreter, with the block counters proving the hot
// path actually ran compiled blocks.
func TestBlockJITCompilesAndMatchesInterp(t *testing.T) {
	run := func(e Engine) (*Thread, error) {
		p := newLoopProcess(e, 500)
		th := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
		return th, th.Run(1 << 20)
	}
	ref, refErr := run(EngineInterp)
	got, gotErr := run(EngineBlockJIT)
	rf, ok1 := refErr.(*Fault)
	gf, ok2 := gotErr.(*Fault)
	if !ok1 || !ok2 || rf.Kind != FaultCFI || gf.Kind != FaultCFI {
		t.Fatalf("want HLT faults, got interp=%v blockjit=%v", refErr, gotErr)
	}
	if got.Instret != ref.Instret || got.PC != ref.PC || got.Reg[visa.R1] != ref.Reg[visa.R1] || gf.PC != rf.PC {
		t.Errorf("blockjit diverges: instret=%d/%d pc=%#x/%#x r1=%d/%d faultpc=%#x/%#x",
			got.Instret, ref.Instret, got.PC, ref.PC,
			got.Reg[visa.R1], ref.Reg[visa.R1], gf.PC, rf.PC)
	}
	st := got.P.CheckStatsSnapshot()
	if st.JITBlocks == 0 {
		t.Errorf("no blocks compiled (threshold 1, 500 iterations)")
	}
	if st.JITBlockRuns == 0 {
		t.Errorf("no compiled-block dispatches")
	}
	if st.JITBlockRuns <= st.JITColdSteps {
		t.Errorf("hot/cold ratio inverted: %d block runs vs %d cold steps",
			st.JITBlockRuns, st.JITColdSteps)
	}
}

// TestBlockJITBudgetExact sweeps the instruction budget across values
// that land before, inside, and after compiled-block dispatches: at
// every budget the blockjit engine must return ErrBudget (or the halt)
// with exactly the interpreter's Instret, PC, and register state — the
// dispatcher may never overshoot into a block it cannot finish.
func TestBlockJITBudgetExact(t *testing.T) {
	const iters = 64
	type snap struct {
		instret, pc, r1 int64
		budget          bool
		fault           bool
	}
	run := func(e Engine, budget int64) snap {
		p := newLoopProcess(e, iters)
		// Warm the profile so blocks are compiled before the measured
		// run: a first thread executes the whole loop.
		if e == EngineBlockJIT {
			warm := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
			if err := warm.Run(1 << 20); err == nil {
				t.Fatal("warm run did not halt")
			}
			if st := p.CheckStatsSnapshot(); st.JITBlocks == 0 {
				t.Fatal("warm run compiled no blocks")
			}
		}
		th := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
		err := th.Run(budget)
		var f *Fault
		return snap{
			instret: th.Instret, pc: th.PC, r1: th.Reg[visa.R1],
			budget: errors.Is(err, ErrBudget),
			fault:  errors.As(err, &f),
		}
	}
	for budget := int64(1); budget < 4*iters+8; budget++ {
		ref := run(EngineInterp, budget)
		got := run(EngineBlockJIT, budget)
		if got != ref {
			t.Fatalf("budget %d: blockjit %+v, interp %+v", budget, got, ref)
		}
	}
}

// TestBlockJITFaultInsideBlock ends the loop body with a store to
// unmapped memory so the fault fires from inside a compiled block;
// the fault PC and retired count must match the interpreter exactly
// (including the deferred retires of the pure steps before it).
func TestBlockJITFaultInsideBlock(t *testing.T) {
	var code []byte
	code = visa.Encode(code, visa.Instr{Op: visa.MOVI, R1: visa.R2, Imm: -8})
	code = visa.Encode(code, visa.Instr{Op: visa.ADDI, R1: visa.R1, Imm: 7})
	code = visa.Encode(code, visa.Instr{Op: visa.ST64, R1: visa.R1, R2: visa.R2, Imm: 0})
	code = visa.Encode(code, visa.Instr{Op: visa.HLT})

	run := func(e Engine) (*Thread, *Fault) {
		p := NewProcess()
		p.SetEngine(e)
		p.SetJITThreshold(1)
		copy(p.Mem[visa.CodeBase:], code)
		p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
		// First pass fills the icache, second profiles and compiles,
		// third dispatches the compiled block.
		for i := 0; ; i++ {
			th := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
			err := th.Run(4096)
			if i == 2 {
				f, ok := err.(*Fault)
				if !ok {
					t.Fatalf("engine %s: want fault, got %v", e, err)
				}
				return th, f
			}
		}
	}
	ref, rf := run(EngineInterp)
	got, gf := run(EngineBlockJIT)
	if st := got.P.CheckStatsSnapshot(); st.JITBlocks == 0 || st.JITBlockRuns == 0 {
		t.Fatalf("fault path did not execute a compiled block: %+v", st)
	}
	if gf.Kind != rf.Kind || gf.PC != rf.PC || got.Instret != ref.Instret || got.Reg[visa.R1] != ref.Reg[visa.R1] {
		t.Errorf("fault diverges: kind=%v/%v pc=%#x/%#x instret=%d/%d r1=%d/%d",
			gf.Kind, rf.Kind, gf.PC, rf.PC, got.Instret, ref.Instret,
			got.Reg[visa.R1], ref.Reg[visa.R1])
	}
}

// TestBlockJITEpochDiscard proves a compiled block is discarded when
// a full update transaction discards every block (DiscardBlocks):
// after it the old block must never dispatch again — it is
// dropped at the dispatch check and the start re-profiled.
func TestBlockJITEpochDiscard(t *testing.T) {
	p := newLoopProcess(EngineBlockJIT, 100)
	runOnce := func() {
		th := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
		if err := th.Run(1 << 20); err == nil {
			t.Fatal("run did not halt")
		}
	}
	runOnce()
	before := p.CheckStatsSnapshot()
	if before.JITBlocks == 0 || before.JITBlockRuns == 0 {
		t.Fatalf("no compiled blocks to invalidate: %+v", before)
	}

	p.DiscardBlocks()
	runOnce()
	after := p.CheckStatsSnapshot()
	if after.JITDiscards <= before.JITDiscards {
		t.Errorf("epoch bump did not discard any block: discards %d -> %d",
			before.JITDiscards, after.JITDiscards)
	}
	if after.JITBlocks <= before.JITBlocks {
		t.Errorf("discarded blocks were not recompiled: blocks %d -> %d",
			before.JITBlocks, after.JITBlocks)
	}
}

// TestBlockJITStaleCode is the jitsim regression under the block
// compiler: code runs hot (compiled), its page is rewritten through
// the write-then-mprotect cycle, and the new code must execute — the
// old block is fenced by both the epoch stamp and the page drop.
func TestBlockJITStaleCode(t *testing.T) {
	p := NewProcess()
	p.SetEngine(EngineBlockJIT)
	p.SetJITThreshold(1)
	p.Protect(visa.DataBase, 1<<16, visa.ProtRead|visa.ProtWrite)

	copy(p.Mem[visa.CodeBase:], emitProbe(111))
	p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
	for i := 0; i < 3; i++ { // profile, compile, run hot
		if got := runToHalt(t, p); got != 111 {
			t.Fatalf("run %d: R0 = %d, want 111", i, got)
		}
	}
	if st := p.CheckStatsSnapshot(); st.JITBlocks == 0 || st.JITBlockRuns == 0 {
		t.Fatalf("probe never ran compiled: %+v", st)
	}

	p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtWrite)
	copy(p.Mem[visa.CodeBase:], emitProbe(222))
	p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
	if got := runToHalt(t, p); got != 222 {
		t.Fatalf("after rewrite: R0 = %d, want 222 (stale compiled block?)", got)
	}
}

// Layout of the memory-step block: four RW data pages and a poison
// address on a page no access may touch.
const (
	memData   = visa.DataBase
	memStack  = memData + 2*PageSize // SP at every pass's start
	memPoison = memData + 16*PageSize
)

// memStepBases names, in block order, the register each memory step
// of emitMemorySteps takes its address from: poisoning it makes that
// step fault. SP (the push) is poisoned through its own value, the pop
// through R7, which the block moves into SP before it.
var memStepBases = []byte{visa.R2, visa.R3, visa.SP, visa.R4, visa.R7, visa.R12, visa.R13}

// emitMemorySteps assembles a loop whose body is one compiled block
// mixing pure steps with every kind of memory step: a load and a store,
// a load consumed by the ALU op after it, a PUSH, the rewriter's mask
// + store pair, a POP, and narrow widths. R5 counts the passes.
func emitMemorySteps() []byte {
	a := visa.NewAsm()
	a.Label("body")
	for _, ins := range []visa.Instr{
		{Op: visa.ADDI, R1: visa.R0, Imm: 5},
		{Op: visa.LD64, R1: visa.R1, R2: visa.R2},
		{Op: visa.ADD, R1: visa.R0, R2: visa.R1},
		{Op: visa.ST32, R1: visa.R0, R2: visa.R3, Imm: 8},
		{Op: visa.PUSH, R1: visa.R0},
		{Op: visa.XOR, R1: visa.R6, R2: visa.R0},
		{Op: visa.ANDI, R1: visa.R4, Imm: visa.StoreMask},
		{Op: visa.ST64, R1: visa.R1, R2: visa.R4},
		{Op: visa.MOV, R1: visa.SP, R2: visa.R7},
		{Op: visa.POP, R1: visa.R8},
		{Op: visa.LD8U, R1: visa.R9, R2: visa.R12, Imm: 3},
		{Op: visa.CMP, R1: visa.R9, R2: visa.R0},
		{Op: visa.ST16, R1: visa.R9, R2: visa.R13},
		{Op: visa.ADDI, R1: visa.R5, Imm: -1},
		{Op: visa.CMPI, R1: visa.R5, Imm: 0},
	} {
		a.Emit(ins)
	}
	a.EmitBranch(visa.JNE, "body")
	a.Emit(visa.Instr{Op: visa.HLT})
	if err := a.Finish(); err != nil {
		panic(err)
	}
	return a.Code
}

// memStepsThread returns a thread at the block's start with valid
// bases and passes passes to run.
func memStepsThread(p *Process, passes int64) *Thread {
	th := p.NewThread(visa.CodeBase, memStack)
	th.Reg[visa.R2] = memData
	th.Reg[visa.R3] = memData + 64
	th.Reg[visa.R4] = memData + 128
	th.Reg[visa.R7] = memStack - 8 // where the push wrote
	th.Reg[visa.R12] = memData + 192
	th.Reg[visa.R13] = memData + 256
	th.Reg[visa.R5] = passes
	return th
}

// TestBlockJITMemoryStepsDeferAccounting checks the deferred accounting
// of compiled memory steps: a step that succeeds only adds to the
// block's pending retires, and one that faults credits them plus
// itself and reports its own PC. After warm-up threads have compiled
// the block, it makes each memory step fault in turn (the block's
// first dispatch faults) and, separately, puts the instruction budget
// on every position of a three-pass run. Each time the fault kind and
// PC, Instret, PC, every register (SP included) and the data pages
// must equal the interpreter's. A budget that ends between the mask
// and its store lands on the cold path's mask+store superinstruction,
// which must retire the mask alone.
func TestBlockJITMemoryStepsDeferAccounting(t *testing.T) {
	code := emitMemorySteps()
	newProc := func(e Engine) *Process {
		p := NewProcess()
		p.SetEngine(e)
		p.SetJITThreshold(1)
		copy(p.Mem[visa.CodeBase:], code)
		p.Protect(visa.CodeBase, PageSize, visa.ProtRead|visa.ProtExec)
		p.Protect(memData, 4*PageSize, visa.ProtRead|visa.ProtWrite)
		for i := int64(0); i < 4*PageSize; i++ {
			p.Mem[memData+i] = byte(i*0x3b + 7)
		}
		// The first run fills the page cache and compiles the block on
		// the loop's backedge; the second runs it compiled.
		for i := 0; i < 2; i++ {
			if err := memStepsThread(p, 2).Run(1 << 16); !errors.As(err, new(*Fault)) {
				t.Fatalf("%s warm-up: %v, want the hlt", e, err)
			}
		}
		return p
	}
	type outcome struct {
		kind        FaultKind
		faultPC     int64
		budget      bool
		instret, pc int64
		reg         [16]int64
		data        uint64 // FNV-1a of the data pages
	}
	run := func(p *Process, th *Thread, budget int64) outcome {
		err := th.Run(budget)
		h := fnv.New64a()
		h.Write(p.Mem[memData : memData+4*PageSize])
		o := outcome{
			budget: errors.Is(err, ErrBudget), instret: th.Instret, pc: th.PC,
			reg: [16]int64(th.Reg[:16]), data: h.Sum64(),
		}
		if f, ok := err.(*Fault); ok {
			o.kind, o.faultPC = f.Kind, f.PC
		} else if !o.budget {
			t.Fatalf("Run = %v, want a fault or ErrBudget", err)
		}
		return o
	}

	jit := newProc(EngineBlockJIT)
	b := jit.compiledBlockAt(visa.CodeBase)
	if b == nil {
		t.Fatal("warm-up compiled no block at the loop head")
	}
	memSteps := 0
	for _, s := range b.steps {
		if s.kind == kHandler {
			if op := b.calls[s.call].ins.Op; op != visa.HLT {
				t.Errorf("block runs %s through its handler", op.Name())
			}
		}
		if s.kind >= kLd8 && s.kind <= kPop {
			memSteps++
		}
	}
	if memSteps != len(memStepBases) {
		t.Errorf("block has %d memory steps, want %d", memSteps, len(memStepBases))
	}

	ran := func(p *Process) int64 { return p.CheckStatsSnapshot().JITBlockRuns }
	for k, base := range memStepBases {
		poison := int64(memPoison)
		if base == visa.SP {
			poison += 8 // the push decrements first
		}
		ref, jit := newProc(EngineInterp), newProc(EngineBlockJIT)
		want := func() outcome {
			th := memStepsThread(ref, 3)
			th.Reg[base] = poison
			return run(ref, th, 1<<16)
		}()
		before := ran(jit)
		th := memStepsThread(jit, 3)
		th.Reg[base] = poison
		got := run(jit, th, 1<<16)
		if ran(jit) == before {
			t.Fatalf("memory step %d: no compiled block ran", k)
		}
		if want.kind != FaultMem {
			t.Fatalf("memory step %d: interp ended with %v, want a memory fault", k, want.kind)
		}
		if got != want {
			t.Errorf("memory step %d faulting:\n got %+v\nwant %+v", k, got, want)
		}
	}

	ref := newProc(EngineInterp)
	full := run(ref, memStepsThread(ref, 3), 1<<16).instret
	var blockRuns int64
	for budget := int64(1); budget <= full+1; budget++ {
		ref, jit := newProc(EngineInterp), newProc(EngineBlockJIT)
		want := run(ref, memStepsThread(ref, 3), budget)
		before := ran(jit)
		got := run(jit, memStepsThread(jit, 3), budget)
		blockRuns += ran(jit) - before
		if got != want {
			t.Errorf("budget %d:\n got %+v\nwant %+v", budget, got, want)
		}
	}
	if blockRuns == 0 {
		t.Fatal("budget sweep: no compiled block ran")
	}
}
