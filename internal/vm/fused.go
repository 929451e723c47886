// Check-transaction fusion: the icache fill path recognizes the
// canonical check sequence the rewriter emits before every indirect
// branch (paper Fig. 4 — and32; Try: tloadi, tload, cmp, je Ok; testb,
// je Halt; cmpw, jne Try; Halt: hlt) and predecodes the whole
// 36-byte span as ONE superinstruction that runs the transaction in
// host Go: one atomic Bary load, one atomic Tary load, the ID compare,
// and the version-mismatch retry loop. The instrumented program pays
// one dispatch instead of nine per check, while Instret is credited
// with the exact number of guest instructions the interp engine would
// have retired, so the Fig. 5/6 cost metric and the differential tests
// stay bit-identical.
//
// A fused check keeps nothing between executions: every pass does
// both table loads, as the guest sequence does, so a check reads the
// CFG that is published at that moment and needs no invalidation of
// its own when an update transaction or a page-protection transition
// lands. Near the instruction budget a fused step stops at an
// instruction boundary rather than retire past it (Thread.edge), so
// ErrBudget lands where the interpreter's does.
package vm

import (
	"sync"
	"sync/atomic"

	"mcfi/internal/rewrite"
	"mcfi/internal/visa"
)

// The fused pseudo-opcodes occupy holes in the ISA encoding space —
// visa.Decode rejects the bytes, so they can only ever enter the
// pipeline through a predecoded cache slot installed at fill time,
// never from guest bytes.
const (
	// opFusedCheck is the fused canonical check transaction (paper
	// Fig. 4). The slot may also fold the indirect branch that follows
	// the check: R1 carries the branch opcode byte (0 = unfolded — no
	// real opcode is 0-valued-and-branching), R2 the count of alignment
	// NOPs between check and branch, and the slot size covers the whole
	// folded span.
	opFusedCheck = visa.Op(0xF8)
	// opFusedCheckPLT is the fused PLT-stub check: the GOT-slot-
	// reloading retry variant of §5.2 (the stub reloads the target from
	// the GOT on every retry, so a retried transaction cannot be split
	// from its reload). Same R1/R2 branch-folding convention.
	opFusedCheckPLT = visa.Op(0xF9)
	// opTraceMaskStore is the trace superinstruction for the rewriter's
	// sandbox-mask + store pair (see threaded.go).
	opTraceMaskStore = visa.Op(0xFA)
)

// maxFusedRetries bounds the host-side retry loop of one fused step.
// The guest loop is unbounded (a check spins until the versions agree,
// Fig. 4), but an unbounded host loop would be invisible to Run's
// exit/budget polling; after this many version mismatches the fused
// step retires its rounds and hands the PC back to the per-instruction
// engine at Try, which preserves the spin semantics interruptibly.
const maxFusedRetries = 64

// fusedSite is the runtime state of one registered check transaction.
type fusedSite struct {
	// start is the guest address of the span's first instruction (the
	// and32 mask, or the PLT stub's movi).
	start int64
	// baryOff is the TLOADI immediate — the Bary byte offset patched
	// into the code by the loader — read from memory at predecode time
	// (-1 until the first fill).
	baryOff atomic.Int64
	// gotAddr is the GOT slot address a PLT-variant site reloads its
	// target from (the stub's MOVI immediate), -1 for canonical sites.
	gotAddr atomic.Int64
}

// fusedState is the Process's fusion state. Sites only accumulate
// (modules are never unloaded); the slice is copy-on-write under mu so
// stepFused can index it with one atomic load while Dlopen registers
// new sites.
type fusedState struct {
	mu    sync.Mutex
	sites atomic.Pointer[[]*fusedSite]
	index map[int64]int // start address → slice index; guarded by mu
}

// RegisterCheckSites tells the process where canonical check
// transactions start (absolute guest addresses of their and32 masks).
// The blockjit engine predecodes each into one superinstruction; the
// interpreter ignores the registration. Safe to call while threads run
// (the dlopen path registers freshly loaded modules). Addresses
// already registered are skipped; addresses that do not actually hold
// the canonical byte sequence are harmless — predecode re-verifies with
// rewrite.MatchCheck and falls back to plain decoding.
func (p *Process) RegisterCheckSites(starts []int64) {
	f := &p.fused
	f.mu.Lock()
	defer f.mu.Unlock()
	var sites []*fusedSite
	if cur := f.sites.Load(); cur != nil {
		sites = append(sites, *cur...)
	}
	if f.index == nil {
		f.index = make(map[int64]int)
	}
	for _, s := range starts {
		if _, dup := f.index[s]; dup || s < 0 {
			continue
		}
		fs := &fusedSite{start: s}
		fs.baryOff.Store(-1)
		fs.gotAddr.Store(-1)
		f.index[s] = len(sites)
		sites = append(sites, fs)
	}
	f.sites.Store(&sites)
}

// fusedSiteAt returns the registered site starting at pc, if any.
func (p *Process) fusedSiteAt(pc int64) (int, *fusedSite) {
	f := &p.fused
	f.mu.Lock()
	idx, ok := f.index[pc]
	f.mu.Unlock()
	if !ok {
		return -1, nil
	}
	return idx, (*f.sites.Load())[idx]
}

// tryFuse attempts to predecode the bytes at pc as one fused check
// transaction. It requires live tables, a registered site, an
// executable span, and an exact byte match against one of the two
// check templates — the canonical sequence or the PLT stub's
// GOT-reloading variant (per-site immediate wildcards excepted).
// Anything else falls back to ordinary decoding, so a stale or wrong
// registration can never change semantics. A foldable indirect branch
// right after the span joins the superinstruction.
func (p *Process) tryFuse(pc int64) (visa.Instr, int, bool) {
	if p.Tables == nil {
		return visa.Instr{}, 0, false
	}
	idx, site := p.fusedSiteAt(pc)
	if site == nil {
		return visa.Instr{}, 0, false
	}
	ins, size, ok := p.tryFuseCanonical(pc, idx, site)
	if !ok {
		ins, size, ok = p.tryFusePLT(pc, idx, site)
	}
	if !ok {
		return visa.Instr{}, 0, false
	}
	if bop, nops, bsize, ok := p.scanFoldableBranch(pc + int64(size)); ok {
		ins.R1, ins.R2 = byte(bop), byte(nops)
		size += nops + bsize
	}
	return ins, size, true
}

// tryFuseCanonical matches the canonical check template at pc.
func (p *Process) tryFuseCanonical(pc int64, idx int, site *fusedSite) (visa.Instr, int, bool) {
	end := pc + rewrite.CheckSeqSize
	if end > int64(len(p.Mem)) || p.Prot(end-1)&visa.ProtExec == 0 {
		return visa.Instr{}, 0, false
	}
	if !rewrite.MatchCheck(p.Mem, int(pc)) {
		return visa.Instr{}, 0, false
	}
	m := p.Mem[pc+rewrite.CheckImmOffset:]
	imm := uint32(m[0]) | uint32(m[1])<<8 | uint32(m[2])<<16 | uint32(m[3])<<24
	site.baryOff.Store(int64(imm))
	return visa.Instr{Op: opFusedCheck, Imm: int64(idx)}, int(rewrite.CheckSeqSize), true
}

// tryFusePLT matches the PLT-stub check template at pc (§5.2: the
// retry loop reloads the target address from the GOT slot, so the
// MOVI's GOT address and the TLOADI immediate are the wildcards).
func (p *Process) tryFusePLT(pc int64, idx int, site *fusedSite) (visa.Instr, int, bool) {
	end := pc + rewrite.PLTCheckSeqSize
	if end > int64(len(p.Mem)) || p.Prot(end-1)&visa.ProtExec == 0 {
		return visa.Instr{}, 0, false
	}
	if !rewrite.MatchPLTCheck(p.Mem, int(pc)) {
		return visa.Instr{}, 0, false
	}
	m := p.Mem[pc+rewrite.PLTCheckImmOffset:]
	imm := uint32(m[0]) | uint32(m[1])<<8 | uint32(m[2])<<16 | uint32(m[3])<<24
	site.baryOff.Store(int64(imm))
	g := p.Mem[pc+rewrite.PLTCheckGotOffset:]
	var got int64
	for i := 0; i < 8; i++ {
		got |= int64(g[i]) << (8 * i)
	}
	site.gotAddr.Store(got)
	return visa.Instr{Op: opFusedCheckPLT, Imm: int64(idx)}, int(rewrite.PLTCheckSeqSize), true
}

// scanFoldableBranch inspects the bytes after a matched check span for
// the indirect branch the rewriter emits there — up to three alignment
// NOPs, then exactly JMPR R11, CALLR R11, or the longjmp transfer
// JRESTORE R3:R4:R11 (returns are a POP into R11 followed by JMPR, so
// they fold as JMPR). Anything else — including a span that leaves the
// executable region — refuses the fold; the check superinstruction
// then ends at the hlt and the branch executes as its own step.
func (p *Process) scanFoldableBranch(start int64) (visa.Op, int, int, bool) {
	pc := start
	nops := 0
	for ; nops <= 3; nops++ {
		ins, n, err := visa.Decode(p.Mem, int(pc))
		if err != nil {
			return 0, 0, 0, false
		}
		if ins.Op == visa.NOP {
			pc += int64(n)
			continue
		}
		switch {
		case ins.Op == visa.JMPR && ins.R1 == visa.R11,
			ins.Op == visa.CALLR && ins.R1 == visa.R11,
			ins.Op == visa.JRESTORE && ins.R1 == visa.R3 && ins.R2 == visa.R4 && ins.R3 == visa.R11:
			end := pc + int64(n)
			if end > int64(len(p.Mem)) || p.Prot(end-1)&visa.ProtExec == 0 {
				return 0, 0, 0, false
			}
			return ins.Op, nops, n, true
		}
		return 0, 0, 0, false
	}
	return 0, 0, 0, false
}

// stepFused executes one fused check transaction. Its handler has
// already retired the and32 (Instret++); this routine retires the rest
// of the guest instructions the interp engine would have executed,
// reproducing its architectural effects exactly: registers R9–R11,
// the comparison flags, the continuation PC, and on a violation the
// fault PC of the hlt. pc is the span start; ins is the cache slot
// (its R1/R2 carry a folded branch, if any).
func (t *Thread) stepFused(pc int64, ins *visa.Instr) error {
	p := t.P
	idx := int(ins.Imm)
	sites := p.fused.sites.Load()
	if sites == nil || idx < 0 || idx >= len(*sites) {
		return t.fault(FaultDecode, "fused check slot with no registered site")
	}
	site := (*sites)[idx]
	r := &t.Reg

	// and32 r11.
	r[visa.R11] = int64(uint32(r[visa.R11]))
	target := r[visa.R11]
	t.FusedExecs++

	baryOff := site.baryOff.Load()
	for retries := 0; ; retries++ {
		// Try: tloadi r10; tload r9, r11.
		bid := p.Tables.Load32(baryOff)
		tid := p.Tables.Load32(target)
		n := checkRoundRetires(bid, tid)
		if t.Instret+n > t.edge {
			// The round would retire past the budget: stop at Try with
			// the rounds so far retired, and let per-instruction
			// stepping retire up to the budget exactly.
			t.PC = pc + rewrite.CheckTryOffset
			return nil
		}
		t.Instret += n
		r[visa.R10], r[visa.R9] = int64(bid), int64(tid)

		if bid == tid {
			// cmp; je Ok (taken).
			t.fa, t.fb, t.fFloat = int64(bid), int64(tid), false
			t.PC = pc + rewrite.CheckSeqSize
			return t.foldedBranch(ins)
		}
		if tid&1 == 0 {
			// testb finds the validity bit clear; je Halt (taken); hlt.
			t.fa, t.fb, t.fFloat = 0, 0, false
			t.PC = pc + rewrite.CheckHaltOffset
			return t.cfiFault(CheckIndirect, target, "hlt")
		}
		t.fa, t.fb, t.fFloat = int64(bid&0xFFFF), int64(tid&0xFFFF), false
		if bid&0xFFFF == tid&0xFFFF {
			// Same version, different ECN — a true violation: cmpw;
			// jne Try falls through; hlt.
			t.PC = pc + rewrite.CheckHaltOffset
			return t.cfiFault(CheckIndirect, target, "hlt")
		}
		// Version mismatch: jne Try (taken), go again.
		if retries+1 >= maxFusedRetries {
			// An update storm (or an unpublished Bary ID) keeps the
			// versions apart. Resume per-instruction at Try with the
			// rounds retired, so the spin stays interruptible by Run's
			// exit and budget polling. The folded branch (if any) is
			// NOT executed — per-instruction stepping will reach its
			// plain bytes after the re-run check passes.
			t.PC = pc + rewrite.CheckTryOffset
			return nil
		}
	}
}

// checkRoundRetires is the number of guest instructions one round of
// the check's Try tail retires for the IDs its table loads returned:
// tloadi, tload, cmp, je Ok (taken) on a pass = 4; then testb, je Halt
// (taken), hlt on a clear validity bit = 7; cmpw, jne Try falling
// through, hlt on a same-version violation = 9; and cmpw, jne Try
// taken on a version mismatch = 8.
func checkRoundRetires(bid, tid uint32) int64 {
	switch {
	case bid == tid:
		return 4
	case tid&1 == 0:
		return 7
	case bid&0xFFFF == tid&0xFFFF:
		return 9
	}
	return 8
}

// foldedBranch completes a passed check whose slot folded the
// following indirect branch. On entry t.PC is the check span's end —
// where the interp engine would sit after je Ok — and R11 holds the
// masked, validated target. The alignment NOPs and the branch itself
// retire exactly as the interp engine would retire them. Slots
// without a fold (ins.R1 == 0) return immediately, and so does a fold
// that would retire past the budget: PC stays on the span's end, and
// per-instruction stepping runs the NOPs and the branch.
func (t *Thread) foldedBranch(ins *visa.Instr) error {
	if ins.R1 == 0 || t.Instret+int64(ins.R2)+1 > t.edge {
		return nil
	}
	r := &t.Reg
	t.Instret += int64(ins.R2) // alignment NOPs between check and branch
	branchPC := t.PC + int64(ins.R2)
	op := visa.Op(ins.R1)
	t.Instret++ // the branch retires even if its push faults
	switch op {
	case visa.JMPR:
		t.PC = r[visa.R11]
	case visa.CALLR:
		// The return address is the byte after the callr; a stack fault
		// must report the callr's own PC.
		t.PC = branchPC
		if err := t.push(branchPC + int64(op.Size())); err != nil {
			return err
		}
		t.PC = r[visa.R11]
	case visa.JRESTORE:
		t.Reg[visa.SP] = r[visa.R3]
		t.Reg[visa.FP] = r[visa.R4]
		t.PC = r[visa.R11]
	default:
		return t.fault(FaultDecode, "fused slot folds unknown branch %s", op.Name())
	}
	return nil
}

// stepFusedPLT executes one fused PLT-stub check transaction — the
// GOT-slot-reloading variant (§5.2): every retry round re-executes the
// stub's movi + ld64 so a retried transaction observes the freshest
// GOT value, exactly as the guest loop would. Its handler has already
// retired the leading movi; pc is the stub's try label (= span start).
// Instret per round is movi, ld64, and32, then the canonical tail:
// pass = 7, invalid-bit halt = 10, same-version halt = 12, full retry
// round = 11.
func (t *Thread) stepFusedPLT(pc int64, ins *visa.Instr) error {
	p := t.P
	idx := int(ins.Imm)
	sites := p.fused.sites.Load()
	if sites == nil || idx < 0 || idx >= len(*sites) {
		return t.fault(FaultDecode, "fused PLT slot with no registered site")
	}
	site := (*sites)[idx]
	r := &t.Reg
	gotAddr := site.gotAddr.Load()
	baryOff := site.baryOff.Load()
	t.FusedExecs++
	t.FusedPLTExecs++

	for retries := 0; ; retries++ {
		// A round retires its movi (the handler covered round 0's),
		// the ld64 GOT reload and the and32, then the canonical tail.
		// Its loads go to locals first, so a round that would retire
		// past the budget leaves no trace (stopPLTRound).
		var movi int64
		if retries > 0 {
			movi = 1
		}
		// ld64 r11, [r11] — the GOT reload. It can fault like any guest
		// load; the fault PC is the ld64's own address, the load still
		// retires, and like every load it clobbers its destination with
		// the (zero) loaded value.
		v, ok := t.load64(gotAddr)
		if !ok {
			if t.Instret+movi+1 > t.edge {
				return t.stopPLTRound(pc, gotAddr, retries)
			}
			t.Instret += movi + 1
			r[visa.R11] = int64(v)
			t.PC = pc + rewrite.PLTCheckLoadOffset
			return t.memFault(gotAddr, 8, visa.ProtRead)
		}
		// and32 r11; Try tail: tloadi r10; tload r9, r11.
		target := int64(uint32(v))
		bid := p.Tables.Load32(baryOff)
		tid := p.Tables.Load32(target)
		n := movi + 2 + checkRoundRetires(bid, tid)
		if t.Instret+n > t.edge {
			return t.stopPLTRound(pc, gotAddr, retries)
		}
		t.Instret += n
		r[visa.R11] = target
		r[visa.R10], r[visa.R9] = int64(bid), int64(tid)

		if bid == tid {
			// cmp; je Ok (taken).
			t.fa, t.fb, t.fFloat = int64(bid), int64(tid), false
			t.PC = pc + rewrite.PLTCheckSeqSize
			return t.foldedBranch(ins)
		}
		if tid&1 == 0 {
			// testb; je Halt (taken); hlt.
			t.fa, t.fb, t.fFloat = 0, 0, false
			t.PC = pc + rewrite.PLTCheckHaltOffset
			return t.cfiFault(CheckPLT, target, "hlt")
		}
		t.fa, t.fb, t.fFloat = int64(bid&0xFFFF), int64(tid&0xFFFF), false
		if bid&0xFFFF == tid&0xFFFF {
			// cmpw; jne Try falls through; hlt.
			t.PC = pc + rewrite.PLTCheckHaltOffset
			return t.cfiFault(CheckPLT, target, "hlt")
		}
		// Version mismatch: jne Try (taken), reload the GOT and go
		// again.
		if retries+1 >= maxFusedRetries {
			// Hand the spin back to the run loop at Try (= the span
			// start, so the slot re-enters bounded rounds) to stay
			// interruptible by exit/budget polling.
			t.PC = pc
			return nil
		}
	}
}

// stopPLTRound leaves a PLT check on the instruction boundary before
// round retries, whose retires would pass the budget, so that
// per-instruction stepping retires up to the budget exactly: just past
// the handler's movi for round 0, at the stub's Try (the span start)
// for a later round.
func (t *Thread) stopPLTRound(pc, gotAddr int64, retries int) error {
	if retries == 0 {
		t.Reg[visa.R11] = gotAddr
		t.PC = pc + rewrite.PLTCheckLoadOffset
	} else {
		t.PC = pc
	}
	return nil
}
