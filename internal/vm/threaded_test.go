package vm

import (
	"errors"
	"math"
	"sync"
	"testing"

	"mcfi/internal/rewrite"
	"mcfi/internal/tables"
	"mcfi/internal/visa"
)

// engineCold is blockjit with compilation disabled (a threshold above
// math.MaxUint32): every instruction runs on its threaded handler, so
// the tests that use it cover the fused checks, the PLT checks and the
// trace superinstructions without compiled blocks.
// It is a test-only Engine value; useEngine applies it.
const engineCold = Engine(-1)

// useEngine selects e for p, mapping engineCold to its configuration.
func useEngine(p *Process, e Engine) {
	if e == engineCold {
		p.SetEngine(EngineBlockJIT)
		p.SetJITThreshold(math.MaxInt64)
		return
	}
	p.SetEngine(e)
}

// testEngines returns every engine plus engineCold.
func testEngines() []Engine { return append(Engines(), engineCold) }

// checkBlob assembles one instrumented tail-jump check (movi r11,
// target; check; jmpr r11 is left to the caller's prelude) and patches
// branch's Bary index into the TLOADI immediate.
func checkBlob(t *testing.T, tb *tables.Tables, branch int) ([]byte, rewrite.CheckSite) {
	t.Helper()
	a := visa.NewAsm()
	site := rewrite.EmitTailJump(a, true)
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	imm := uint32(tb.BaryBase() + 4*branch)
	for i := 0; i < 4; i++ {
		a.Code[site.TLoadIOffset+2+i] = byte(imm >> (8 * i))
	}
	return a.Code, site
}

// fusedGrid builds the table grid the check tests share: branch i
// (i < 8) is in class i+1, and every 64th address from 0x1000 is a
// target of class (k%8)+1.
func fusedGrid(t *testing.T) *tables.Tables {
	t.Helper()
	const codeLimit = 1 << 16
	tb := tables.New(make([]uint32, codeLimit/4+64), codeLimit, nil)
	tb.Update(func(addr int) int {
		if addr >= 0x1000 && addr < 0x1000+64*64 && (addr-0x1000)%64 == 0 {
			return (addr-0x1000)/64%8 + 1
		}
		return -1
	}, func(i int) int {
		if i < 8 {
			return i + 1
		}
		return -1
	}, tables.UpdateOpts{})
	return tb
}

// runOutcome is everything architecturally observable about one
// bounded run.
type runOutcome struct {
	faultKind FaultKind
	faultPC   int64
	faulted   bool
	instret   int64
	pc        int64
	r9, r10   int64
	r11       int64
	fa, fb    int64
}

// outcomeOf captures the runOutcome of a thread stopped by err.
func outcomeOf(th *Thread, err error) runOutcome {
	out := runOutcome{
		instret: th.Instret, pc: th.PC,
		r9: th.Reg[visa.R9], r10: th.Reg[visa.R10], r11: th.Reg[visa.R11],
		fa: th.fa, fb: th.fb,
	}
	if f, ok := err.(*Fault); ok {
		out.faulted, out.faultKind, out.faultPC = true, f.Kind, f.PC
	}
	return out
}

// spinProcess loads "L: movi r11, L; check; between...; jmpr r11" —
// a self-targeting checked jump — at L = 0x1000 into a process on
// engine e. Its tables let the check pass (branch 0 and target 0x1000
// share class 1) and discard compiled blocks on update, as mrt.New
// wires them. With between empty the jmpr folds into the check's slot; any
// instruction in between refuses the fold, so the slot ends at the hlt
// (ins.R1 == 0). Returns the process and the absolute check start.
func spinProcess(t *testing.T, e Engine, between ...visa.Instr) (*Process, int64) {
	return spinProcessOn(t, spinTables(make([]uint32, spinWords)), e, between...)
}

// spinWords sizes spinTables' table memory; the Bary word of branch 0
// is words[spinCodeLimit/4].
const (
	spinCodeLimit = 1 << 14
	spinWords     = spinCodeLimit/4 + 8
)

// spinTables lays spinProcess's tables over words: branch 0 and the
// target 0x1000 share class 1.
func spinTables(words []uint32) *tables.Tables {
	tb := tables.New(words, spinCodeLimit, nil)
	tb.Update(func(addr int) int {
		if addr == 0x1000 {
			return 1
		}
		return -1
	}, func(i int) int {
		if i == 0 {
			return 1
		}
		return -1
	}, tables.UpdateOpts{})
	return tb
}

// spinProcessOn is spinProcess over the tables tb.
func spinProcessOn(t *testing.T, tb *tables.Tables, e Engine, between ...visa.Instr) (*Process, int64) {
	t.Helper()
	a := visa.NewAsm()
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R11, Imm: 0x1000})
	site := rewrite.EmitTailJump(a, true)
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	imm := uint32(tb.BaryBase())
	for i := 0; i < 4; i++ {
		a.Code[site.TLoadIOffset+2+i] = byte(imm >> (8 * i))
	}
	code := a.Code
	if len(between) > 0 {
		code = code[:site.BranchOffset:site.BranchOffset]
		for _, ins := range between {
			code = visa.Encode(code, ins)
		}
		code = visa.Encode(code, visa.Instr{Op: visa.JMPR, R1: visa.R11})
	}
	checkStart := int64(0x1000 + site.CheckStart)

	p := NewProcess()
	p.Tables = tb
	useEngine(p, e)
	tb.OnUpdate(p.DiscardBlocks)
	copy(p.Mem[0x1000:], code)
	p.Protect(0x1000, int64(len(code)), visa.ProtRead|visa.ProtExec)
	p.RegisterCheckSites([]int64{checkStart})
	return p, checkStart
}

// runSpin runs spinProcess's loop for budget instructions and fails
// the test unless the budget is what stopped it.
func runSpin(t *testing.T, e Engine, budget int64, between ...visa.Instr) (*Thread, int64) {
	t.Helper()
	p, checkStart := spinProcess(t, e, between...)
	th := p.NewThread(0x1000, visa.SandboxSize-64)
	if err := th.Run(budget); !errors.Is(err, ErrBudget) {
		t.Fatalf("%s spin: %v, want the budget to stop it", e, err)
	}
	return th, checkStart
}

// unfolded is the spinProcess filler that keeps the jmpr out of the check
// slot: it counts the loop's iterations in r1.
var unfolded = visa.Instr{Op: visa.ADDI, R1: visa.R1, Imm: 1}

// checkSlot returns the cached slot of the check transaction at pc,
// failing the test unless it holds a fused check (either template).
func checkSlot(t *testing.T, p *Process, pc int64) visa.Instr {
	t.Helper()
	if c := p.icache[pc/PageSize].Load(); c != nil {
		if s := c.slotAt(pc, (pc/PageSize+1)*PageSize); s != nil && (s.ins.Op == opFusedCheck || s.ins.Op == opFusedCheckPLT) {
			return s.ins
		}
	}
	t.Fatalf("no fused check cached at %#x", pc)
	return visa.Instr{}
}

// TestThreadedCheckMatchesInterp runs the same check over a grid of
// (branch, target) pairs under the interpreter and the threaded
// handlers (engineCold) and
// demands identical architectural outcomes: fault kind and PC, retired
// count, continuation PC, the MCFI scratch registers, and the flags.
// The blob is a tail-jump check whose jmpr folds into the
// superinstruction, so every outcome — pass, invalid-bit halt,
// same-version halt — exercises the folded-branch path. Every target
// lands on an HLT, so passing checks terminate deterministically (at
// the landing pad's PC) rather than by budget.
func TestThreadedCheckMatchesInterp(t *testing.T) {
	const codeLimit = 1 << 16
	tb := fusedGrid(t)
	const blobAddr = 0x8000

	run := func(e Engine, branch, target int) (runOutcome, *Thread) {
		code, site := checkBlob(t, tb, branch)
		p := NewProcess()
		p.Tables = tb
		useEngine(p, e)
		for i := visa.CodeBase; i < visa.CodeBase+codeLimit; i++ {
			p.Mem[i] = byte(visa.HLT)
		}
		copy(p.Mem[blobAddr:], code)
		p.Protect(visa.CodeBase, codeLimit, visa.ProtRead|visa.ProtExec)
		p.RegisterCheckSites([]int64{int64(blobAddr + site.CheckStart)})

		th := p.NewThread(blobAddr, visa.SandboxSize-64)
		th.Reg[visa.R11] = int64(target)
		err := th.Run(4096)
		return outcomeOf(th, err), th
	}

	targets := []int{
		0x1000, 0x1040, 0x1080, 0x10C0,
		0x1000 + 64*8,
		0x1002,
		0x0FF0,
		0x9000,
		0x1000 + 64*63,
	}
	for branch := 0; branch < 8; branch++ {
		for _, target := range targets {
			want, _ := run(EngineInterp, branch, target)
			got, tth := run(engineCold, branch, target)
			if want != got {
				t.Errorf("branch %d target %#x:\n  interp:   %+v\n  threaded: %+v",
					branch, target, want, got)
			}
			if tth.FusedExecs != 1 {
				t.Errorf("branch %d target %#x: FusedExecs = %d, want 1 (fusion did not engage)",
					branch, target, tth.FusedExecs)
			}
		}
	}
}

// TestThreadedFoldedSpinInstret pins the folded check path: the
// self-targeting checked jump retires movi + and32 + (tloadi tload cmp
// je) + jmpr = 7 per iteration on every engine, with every iteration
// one fused check that transfers through its folded branch.
func TestThreadedFoldedSpinInstret(t *testing.T) {
	const iters = 1000
	ith, _ := runSpin(t, EngineInterp, 7*iters)
	tth, checkStart := runSpin(t, engineCold, 7*iters)
	if ins := checkSlot(t, tth.P, checkStart); visa.Op(ins.R1) != visa.JMPR {
		t.Errorf("check slot folds %#x, want jmpr", ins.R1)
	}
	if ith.Instret != tth.Instret {
		t.Errorf("instret diverges: interp %d, threaded %d", ith.Instret, tth.Instret)
	}
	if tth.FusedExecs != iters {
		t.Errorf("FusedExecs = %d, want %d", tth.FusedExecs, iters)
	}
}

// TestFusedUnfoldedSpinInstret pins a check slot that did not fold its
// branch: a spinning self-checked jump must run every iteration's
// check fused and then step the branch on its own, while the retired
// count stays bit-identical to the interp engine over the same number
// of loop iterations.
func TestFusedUnfoldedSpinInstret(t *testing.T) {
	// One loop iteration retires movi + and32 + (tloadi tload cmp je) +
	// addi + jmpr = 8 instructions; budget a whole number of iterations
	// so both engines stop at the same architectural point.
	const iters = 1000
	ith, _ := runSpin(t, EngineInterp, 8*iters, unfolded)
	fth, checkStart := runSpin(t, engineCold, 8*iters, unfolded)
	if ins := checkSlot(t, fth.P, checkStart); ins.R1 != 0 {
		t.Fatalf("check slot folds %#x, want no fold", ins.R1)
	}
	if ith.Instret != fth.Instret || ith.Reg[visa.R1] != iters || fth.Reg[visa.R1] != iters {
		t.Errorf("diverges: interp instret %d r1 %d, threaded instret %d r1 %d (want r1 %d)",
			ith.Instret, ith.Reg[visa.R1], fth.Instret, fth.Reg[visa.R1], iters)
	}
	if fth.FusedExecs != iters {
		t.Errorf("FusedExecs = %d, want %d", fth.FusedExecs, iters)
	}
	// The process-wide counters (the serving /metrics source) must
	// agree with the thread-local ones once Run has flushed.
	st := fth.P.CheckStatsSnapshot()
	if st.Execs != fth.FusedExecs || st.VerdictHits != 0 || st.VerdictMisses != st.Execs {
		t.Errorf("process counters %+v diverge from thread (execs %d)", st, fth.FusedExecs)
	}
}

// TestFusedCheckHaltsAfterUpdate: a site passes many times, then an
// update transaction moves the branch into a different equivalence
// class. The next execution MUST halt; a pass after the version bump
// would let an old-CFG edge through the new CFG.
func TestFusedCheckHaltsAfterUpdate(t *testing.T) {
	p, checkStart := spinProcess(t, engineCold)
	th := p.NewThread(0x1000, visa.SandboxSize-64)
	if err := th.Run(700); err != nil {
		if _, ok := err.(*Fault); ok {
			t.Fatalf("priming spin faulted: %v", err)
		}
	}
	if th.FusedExecs < 2 {
		t.Fatalf("FusedExecs = %d while priming; fusion not engaged", th.FusedExecs)
	}

	// The branch moves to class 2; its only target stays class 1. Both
	// now carry the same (new) version, so the check must halt.
	p.Tables.Update(func(addr int) int {
		if addr == 0x1000 {
			return 1
		}
		return -1
	}, func(i int) int {
		if i == 0 {
			return 2
		}
		return -1
	}, tables.UpdateOpts{})

	// Run's budget is an absolute Instret bound; extend it past the
	// priming run's count.
	err := th.Run(th.Instret + 700)
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultCFI {
		t.Fatalf("check passed after the update: err=%v (want CFI halt)", err)
	}
	if f.PC != checkStart+rewrite.CheckHaltOffset {
		t.Errorf("halt PC = %#x, want %#x", f.PC, checkStart+rewrite.CheckHaltOffset)
	}
}

// TestFusedRetriesThroughUpdate mirrors
// TestGuestCheckRetriesThroughUpdate on a check slot that did not fold
// its branch (TestThreadedFillInvalidateRace covers the folded one):
// the spinning checked jump keeps passing while a host goroutine
// re-versions the tables continuously, driving the slot's retry loop.
// Under -race this also exercises the check/update-transaction
// interleavings.
func TestFusedRetriesThroughUpdate(t *testing.T) {
	p, checkStart := spinProcess(t, engineCold, unfolded)
	tb := p.Tables
	th := p.NewThread(0x1000, visa.SandboxSize-64)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				tb.Reversion(tables.UpdateOpts{})
			}
		}
	}()
	err := th.Run(300_000)
	close(stop)
	<-done
	if f, ok := err.(*Fault); ok {
		t.Fatalf("fused checked jump faulted under concurrent updates: %v", f)
	}
	if th.FusedExecs == 0 {
		t.Error("fusion did not engage")
	}
	if ins := checkSlot(t, p, checkStart); ins.R1 != 0 {
		t.Errorf("check slot folds %#x, want no fold", ins.R1)
	}
}

// TestFusedFallbackOnNonCanonicalSite registers an address that does
// not hold the canonical check sequence; predecode must re-verify the
// bytes, refuse to fuse, and execute identically to the interp engine.
func TestFusedFallbackOnNonCanonicalSite(t *testing.T) {
	a := visa.NewAsm()
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R1, Imm: 7})
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R2, Imm: 35})
	a.Emit(visa.Instr{Op: visa.ADD, R1: visa.R1, R2: visa.R2})
	a.Emit(visa.Instr{Op: visa.HLT})
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}

	run := func(e Engine) *Thread {
		tb := tables.New(make([]uint32, (1<<14)/4+8), 1<<14, nil)
		p := NewProcess()
		p.Tables = tb
		useEngine(p, e)
		copy(p.Mem[0x1000:], a.Code)
		p.Protect(0x1000, int64(len(a.Code)), visa.ProtRead|visa.ProtExec)
		p.RegisterCheckSites([]int64{0x1000}) // bogus: not a check
		th := p.NewThread(0x1000, visa.SandboxSize-64)
		err := th.Run(100)
		if f, ok := err.(*Fault); !ok || f.Kind != FaultCFI {
			t.Fatalf("engine %s: want the trailing hlt, got %v", e, err)
		}
		return th
	}

	ith := run(EngineInterp)
	fth := run(engineCold)
	if ith.Instret != fth.Instret || ith.Reg[visa.R1] != fth.Reg[visa.R1] {
		t.Errorf("fallback diverges: interp (instret=%d r1=%d) threaded (instret=%d r1=%d)",
			ith.Instret, ith.Reg[visa.R1], fth.Instret, fth.Reg[visa.R1])
	}
	if fth.Reg[visa.R1] != 42 {
		t.Errorf("r1 = %d, want 42", fth.Reg[visa.R1])
	}
	if fth.FusedExecs != 0 {
		t.Errorf("FusedExecs = %d, want 0 (non-canonical bytes must not fuse)", fth.FusedExecs)
	}
}

// callrBlob assembles an instrumented indirect call (check + alignment
// NOPs + callr) with the branch's Bary index patched in.
func callrBlob(t *testing.T, tb *tables.Tables, branch int) ([]byte, rewrite.CheckSite) {
	t.Helper()
	a := visa.NewAsm()
	site := rewrite.EmitIndirectCall(a, true)
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	imm := uint32(tb.BaryBase() + 4*branch)
	for i := 0; i < 4; i++ {
		a.Code[site.TLoadIOffset+2+i] = byte(imm >> (8 * i))
	}
	return a.Code, site
}

// TestThreadedFoldedCallr exercises the folded callr — including the
// rewriter's alignment NOPs between check and branch, the pushed
// return address, and a push that faults on an unmapped stack (the
// fault must name the callr's PC and retire it, exactly as interp).
func TestThreadedFoldedCallr(t *testing.T) {
	const codeLimit = 1 << 16
	tb := fusedGrid(t)
	const blobAddr = 0x8000

	run := func(e Engine, target int, sp int64) (runOutcome, *Thread, *Process) {
		code, site := callrBlob(t, tb, 0)
		p := NewProcess()
		p.Tables = tb
		useEngine(p, e)
		for i := visa.CodeBase; i < visa.CodeBase+codeLimit; i++ {
			p.Mem[i] = byte(visa.HLT)
		}
		copy(p.Mem[blobAddr:], code)
		p.Protect(visa.CodeBase, codeLimit, visa.ProtRead|visa.ProtExec)
		p.RegisterCheckSites([]int64{int64(blobAddr + site.CheckStart)})
		th := p.NewThread(blobAddr, sp)
		th.Reg[visa.R11] = int64(target)
		err := th.Run(4096)
		return outcomeOf(th, err), th, p
	}

	// Passing call: lands on the HLT carpet with the return address
	// pushed; compare the stack word too.
	wantOut, wantTh, wantP := run(EngineInterp, 0x1000, visa.SandboxSize-64)
	gotOut, gotTh, gotP := run(engineCold, 0x1000, visa.SandboxSize-64)
	if wantOut != gotOut {
		t.Errorf("pass: interp %+v != threaded %+v", wantOut, gotOut)
	}
	if wantTh.Reg[visa.SP] != gotTh.Reg[visa.SP] {
		t.Errorf("pass: SP diverges: %#x vs %#x", wantTh.Reg[visa.SP], gotTh.Reg[visa.SP])
	}
	sp := wantTh.Reg[visa.SP]
	for i := int64(0); i < 8; i++ {
		if wantP.Mem[sp+i] != gotP.Mem[sp+i] {
			t.Errorf("pass: pushed return address diverges at +%d: %#x vs %#x",
				i, wantP.Mem[sp+i], gotP.Mem[sp+i])
		}
	}
	if gotTh.FusedExecs != 1 {
		t.Errorf("pass: FusedExecs = %d, want 1", gotTh.FusedExecs)
	}

	// Faulting push: SP in the unmapped guard band.
	wantOut, _, _ = run(EngineInterp, 0x1000, 8)
	gotOut, _, _ = run(engineCold, 0x1000, 8)
	if wantOut != gotOut {
		t.Errorf("push fault: interp %+v != threaded %+v", wantOut, gotOut)
	}
	if !gotOut.faulted || gotOut.faultKind != FaultMem {
		t.Errorf("push fault: got %+v, want a memory fault at the callr", gotOut)
	}
}

// pltBlob assembles one instrumented PLT stub (GOT-reloading check +
// between... + jmpr) with the branch's Bary index patched in.
func pltBlob(t *testing.T, tb *tables.Tables, branch int, gotAddr int64, between ...visa.Instr) []byte {
	t.Helper()
	a := visa.NewAsm()
	tl := rewrite.EmitPLTCheck(a, gotAddr, true)
	for _, ins := range between {
		a.Emit(ins)
	}
	a.Emit(visa.Instr{Op: visa.JMPR, R1: visa.R11})
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	imm := uint32(tb.BaryBase() + 4*branch)
	for i := 0; i < 4; i++ {
		a.Code[tl+2+i] = byte(imm >> (8 * i))
	}
	return a.Code
}

// TestThreadedPLTCheckMatchesInterp runs the PLT-stub template over the
// (branch, target) grid on the threaded handlers: the GOT
// slot holds the target, the stub reloads it each round, and both the
// pass and halt paths must match interp bit-exactly — as must a GOT
// slot on an unmapped page, whose ld64 faults mid-superinstruction.
// Every case runs with the jmpr folded into the check slot and with an
// instruction in between that keeps it unfolded.
func TestThreadedPLTCheckMatchesInterp(t *testing.T) {
	const codeLimit = 1 << 16
	tb := fusedGrid(t)
	const blobAddr = 0x8000
	const gotPage = int64(0x4000)

	var between []visa.Instr
	run := func(e Engine, branch, target int, gotAddr int64) (runOutcome, *Thread) {
		code := pltBlob(t, tb, branch, gotAddr, between...)
		p := NewProcess()
		p.Tables = tb
		useEngine(p, e)
		for i := visa.CodeBase; i < visa.CodeBase+codeLimit; i++ {
			p.Mem[i] = byte(visa.HLT)
		}
		copy(p.Mem[blobAddr:], code)
		p.Protect(visa.CodeBase, codeLimit, visa.ProtRead|visa.ProtExec)
		p.Protect(gotPage, PageSize, visa.ProtRead|visa.ProtWrite)
		for i := 0; i < 8; i++ {
			p.Mem[gotPage+int64(i)] = byte(uint64(target) >> (8 * i))
		}
		p.RegisterCheckSites([]int64{blobAddr})

		th := p.NewThread(blobAddr, visa.SandboxSize-64)
		err := th.Run(4096)
		return outcomeOf(th, err), th
	}

	targets := []int{
		0x1000, 0x1040, 0x10C0,
		0x1000 + 64*8, // invalid bit
		0x1002,        // misaligned -> invalid
		0x9000,        // outside the table
	}
	for _, between = range [][]visa.Instr{nil, {unfolded}} {
		fold := byte(visa.JMPR)
		if between != nil {
			fold = 0
		}
		for branch := 0; branch < 4; branch++ {
			for _, target := range targets {
				want, _ := run(EngineInterp, branch, target, gotPage)
				got, th := run(engineCold, branch, target, gotPage)
				if want != got {
					t.Errorf("between %v branch %d target %#x:\n  interp:   %+v\n  threaded: %+v",
						between, branch, target, want, got)
				}
				if th.FusedPLTExecs != 1 {
					t.Errorf("between %v branch %d target %#x: FusedPLTExecs = %d, want 1",
						between, branch, target, th.FusedPLTExecs)
				}
				if ins := checkSlot(t, th.P, blobAddr); ins.R1 != fold {
					t.Errorf("between %v: check slot folds %#x, want %#x", between, ins.R1, fold)
				}
			}
		}
		// GOT slot on an unmapped page: the ld64 reload faults.
		want, _ := run(EngineInterp, 0, 0x1000, int64(visa.SandboxSize))
		got, _ := run(engineCold, 0, 0x1000, int64(visa.SandboxSize))
		if want != got {
			t.Errorf("between %v GOT fault: interp %+v != threaded %+v", between, want, got)
		}
		if !got.faulted || got.faultKind != FaultMem || got.faultPC != blobAddr+rewrite.PLTCheckLoadOffset {
			t.Errorf("between %v GOT fault: got %+v, want memory fault at the ld64 (%#x)",
				between, got, blobAddr+rewrite.PLTCheckLoadOffset)
		}
	}
}

// pltSpinThread loads a PLT stub at 0x1000 whose GOT slot (on page
// 0x4000) points back at the stub itself, into a process on engine e
// over the tables tb (spinTables: the stub's check passes), and
// returns a thread at the stub. The stub's jmpr folds into the check
// slot unless between keeps it out.
func pltSpinThread(t *testing.T, tb *tables.Tables, e Engine, between ...visa.Instr) *Thread {
	t.Helper()
	const stub = int64(0x1000)
	const gotPage = int64(0x4000)
	code := pltBlob(t, tb, 0, gotPage, between...)
	p := NewProcess()
	p.Tables = tb
	useEngine(p, e)
	copy(p.Mem[stub:], code)
	p.Protect(stub, int64(len(code)), visa.ProtRead|visa.ProtExec)
	p.Protect(gotPage, PageSize, visa.ProtRead|visa.ProtWrite)
	for i := 0; i < 8; i++ {
		p.Mem[gotPage+int64(i)] = byte(uint64(stub) >> (8 * i))
	}
	p.RegisterCheckSites([]int64{stub})
	return p.NewThread(stub, visa.SandboxSize-64)
}

// TestThreadedPLTSpinInstret pins the fused PLT check: a spinning PLT
// stub whose GOT points back at the stub itself runs every round as
// one fused PLT check, with instret bit-identical to interp (each
// round is movi, ld64, and32, tloadi, tload, cmp, je, jmpr = 8
// instructions).
func TestThreadedPLTSpinInstret(t *testing.T) {
	const iters = 500
	const budget = 8 * iters

	run := func(e Engine) (*Thread, error) {
		th := pltSpinThread(t, spinTables(make([]uint32, spinWords)), e)
		err := th.Run(budget)
		return th, err
	}

	ith, ierr := run(EngineInterp)
	tth, terr := run(engineCold)
	if _, ok := ierr.(*Fault); ok {
		t.Fatalf("interp PLT spin faulted: %v", ierr)
	}
	if _, ok := terr.(*Fault); ok {
		t.Fatalf("threaded PLT spin faulted: %v", terr)
	}
	if ith.Instret != tth.Instret {
		t.Errorf("instret diverges: interp %d, threaded %d", ith.Instret, tth.Instret)
	}
	if tth.FusedPLTExecs != iters {
		t.Errorf("FusedPLTExecs = %d, want %d", tth.FusedPLTExecs, iters)
	}
}

// TestCheckBudgetSweep puts the instruction budget on every position
// of a few passes of each check span shape and demands the
// interpreter's outcome (ErrBudget or fault, Instret, PC, the MCFI
// scratch registers, the flags) from the threaded handlers and from
// blockjit compiling at the first entry. The shapes are the canonical
// check with its branch folded and unfolded, the PLT check likewise, a
// check that halts, and a check whose Bary and Tary versions never
// agree, swept past its 64 retry rounds and the hand-back to
// per-instruction stepping (canonical and PLT).
func TestCheckBudgetSweep(t *testing.T) {
	halting := func(t *testing.T, e Engine) *Thread {
		p, _ := spinProcess(t, e)
		p.Tables.Update(func(addr int) int {
			if addr == 0x1000 {
				return 1
			}
			return -1
		}, func(i int) int {
			if i == 0 {
				return 2
			}
			return -1
		}, tables.UpdateOpts{})
		return p.NewThread(0x1000, visa.SandboxSize-64)
	}
	// mismatchedTables flips the low version bit of branch 0's Bary ID.
	mismatchedTables := func() *tables.Tables {
		words := make([]uint32, spinWords)
		tb := spinTables(words)
		words[spinCodeLimit/4] ^= 2
		return tb
	}
	mismatched := func(t *testing.T, e Engine) *Thread {
		p, _ := spinProcessOn(t, mismatchedTables(), e)
		return p.NewThread(0x1000, visa.SandboxSize-64)
	}
	pltMismatched := func(t *testing.T, e Engine) *Thread {
		return pltSpinThread(t, mismatchedTables(), e)
	}
	spin := func(between ...visa.Instr) func(*testing.T, Engine) *Thread {
		return func(t *testing.T, e Engine) *Thread {
			p, _ := spinProcess(t, e, between...)
			return p.NewThread(0x1000, visa.SandboxSize-64)
		}
	}
	plt := func(between ...visa.Instr) func(*testing.T, Engine) *Thread {
		return func(t *testing.T, e Engine) *Thread {
			return pltSpinThread(t, spinTables(make([]uint32, spinWords)), e, between...)
		}
	}
	type outcome struct {
		runOutcome
		budget bool
		r1     int64
	}
	for _, c := range []struct {
		name    string
		thread  func(*testing.T, Engine) *Thread
		budgets int64
	}{
		{"canonical-folded", spin(), 30},
		{"canonical-unfolded", spin(unfolded), 30},
		{"plt-folded", plt(), 30},
		{"plt-unfolded", plt(unfolded), 30},
		{"halting", halting, 15},
		{"mismatched", mismatched, 8*maxFusedRetries + 30},
		{"plt-mismatched", pltMismatched, 11*maxFusedRetries + 30},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(e Engine, budget int64) (outcome, *Thread) {
				th := c.thread(t, e)
				if e == EngineBlockJIT {
					th.P.SetJITThreshold(1)
				}
				err := th.Run(budget)
				o := outcome{runOutcome: outcomeOf(th, err), budget: errors.Is(err, ErrBudget), r1: th.Reg[visa.R1]}
				if !o.budget && !o.faulted {
					t.Fatalf("%s budget %d: Run = %v, want ErrBudget or a fault", e, budget, err)
				}
				return o, th
			}
			var fused int64
			for budget := int64(1); budget <= c.budgets; budget++ {
				want, _ := run(EngineInterp, budget)
				for _, e := range []Engine{engineCold, EngineBlockJIT} {
					got, th := run(e, budget)
					fused += th.FusedExecs
					if got != want {
						t.Errorf("%s budget %d:\n got %+v\nwant %+v", e, budget, got, want)
					}
				}
			}
			if fused == 0 {
				t.Error("no fused check ran")
			}
		})
	}
}

// TestThreadedTraceMaskStore pins the sandbox-mask + store trace
// superinstruction: architectural effects, memory contents, and the
// faulting variant (store to a read-only page) must match interp.
func TestThreadedTraceMaskStore(t *testing.T) {
	build := func(dst int64) []byte {
		a := visa.NewAsm()
		a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R1, Imm: dst})
		a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R2, Imm: 0x1122334455667788})
		a.Emit(visa.Instr{Op: visa.ANDI, R1: visa.R1, Imm: visa.StoreMask})
		a.Emit(visa.Instr{Op: visa.ST64, R1: visa.R2, R2: visa.R1, Imm: 8})
		a.Emit(visa.Instr{Op: visa.HLT})
		if err := a.Finish(); err != nil {
			t.Fatal(err)
		}
		return a.Code
	}

	run := func(e Engine, dst int64, writable bool) (runOutcome, *Process, *Thread) {
		code := build(dst)
		p := NewProcess()
		useEngine(p, e)
		copy(p.Mem[0x1000:], code)
		p.Protect(0x1000, int64(len(code)), visa.ProtRead|visa.ProtExec)
		prot := uint32(visa.ProtRead)
		if writable {
			prot |= visa.ProtWrite
		}
		p.Protect(0x4000, PageSize, prot)
		th := p.NewThread(0x1000, visa.SandboxSize-64)
		err := th.Run(64)
		return outcomeOf(th, err), p, th
	}

	for _, c := range []struct {
		name     string
		dst      int64
		writable bool
	}{
		{"store-ok", 0x4000, true},
		{"store-fault", 0x4000, false},
		// The mask matters: an address with bits above the sandbox set
		// must be wrapped into range before the store.
		{"mask-applies", 0x4000 | (1 << 40), true},
	} {
		want, wp, wth := run(EngineInterp, c.dst, c.writable)
		got, gp, gth := run(engineCold, c.dst, c.writable)
		if want != got {
			t.Errorf("%s: interp %+v != threaded %+v", c.name, want, got)
		}
		if wth.Reg[visa.R1] != gth.Reg[visa.R1] || wth.Reg[visa.R2] != gth.Reg[visa.R2] {
			t.Errorf("%s: registers diverge: r1 %#x/%#x r2 %#x/%#x", c.name,
				wth.Reg[visa.R1], gth.Reg[visa.R1], wth.Reg[visa.R2], gth.Reg[visa.R2])
		}
		for i := int64(0); i < 16; i++ {
			if wp.Mem[0x4000+i] != gp.Mem[0x4000+i] {
				t.Errorf("%s: memory diverges at %#x: %#x vs %#x",
					c.name, 0x4000+i, wp.Mem[0x4000+i], gp.Mem[0x4000+i])
			}
		}
	}
}

// TestThreadedFillInvalidateRace drives the threaded handlers'
// fill/fold path while a host goroutine keeps flipping the code
// pages' protection (the dlopen rebasing pattern) and re-registering
// check sites. Under -race this exercises slot publication against
// invalidation; semantically the spin must never fault, because every
// protection transition leaves the code executable again and the
// epoch bump only forces re-validation.
func TestThreadedFillInvalidateRace(t *testing.T) {
	p, checkStart := spinProcess(t, engineCold)
	tb := p.Tables
	th := p.NewThread(0x1000, visa.SandboxSize-64)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// The dlopen pattern: W^X flip, register, flip back.
				p.Protect(0x1000, PageSize, visa.ProtRead|visa.ProtExec)
				p.RegisterCheckSites([]int64{checkStart})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tb.Reversion(tables.UpdateOpts{})
			}
		}
	}()
	err := th.Run(500_000)
	close(stop)
	wg.Wait()
	if f, ok := err.(*Fault); ok {
		t.Fatalf("threaded spin faulted under invalidate storm: %v", f)
	}
	if th.FusedExecs == 0 {
		t.Error("fusion did not engage")
	}
}
