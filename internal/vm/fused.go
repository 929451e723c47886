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
// On top of fusion sits a per-site verdict cache keyed by an epoch
// counter: a site that passed for (epoch, target) skips the table
// loads entirely until the target changes or the epoch moves. The
// epoch is bumped by every completed update transaction (via
// tables.Tables.OnUpdate) and by every page-protection transition, so
// a cached verdict is only ever reused within one published CFG —
// the same old-CFG/new-CFG atomicity argument as the paper's §5:
// a check that reuses a verdict while an update is in flight
// linearizes before that update. The epoch is 64-bit, so unlike the
// 14-bit version field it cannot wrap around (no ABA).
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

// fusedVerdict is one cached check outcome: at epoch, the branch
// whose site this is was allowed to reach target (both table loads
// returned id). Reusing it is sound while the epoch is unchanged — no
// update transaction has completed since the loads, so they would
// return the same IDs.
type fusedVerdict struct {
	epoch      int64
	target, id uint32
}

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
	// verdict is the last successful check outcome, nil if none.
	verdict atomic.Pointer[fusedVerdict]
}

// fusedState is the Process's fusion state. Sites only accumulate
// (modules are never unloaded); the slice is copy-on-write under mu so
// stepFused can index it with one atomic load while Dlopen registers
// new sites.
type fusedState struct {
	mu    sync.Mutex
	sites atomic.Pointer[[]*fusedSite]
	index map[int64]int // start address → slice index; guarded by mu

	// epoch invalidates every cached verdict when bumped: wired to
	// tables update transactions and to page-protection transitions.
	epoch atomic.Int64
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

// BumpCheckEpoch invalidates every cached check verdict and marks
// every compiled block stale (the discard floor advances to the new
// epoch). The runtime subscribes it to full-range table update
// transactions so each completed update kills verdicts and blocks
// bound to the previous CFG.
func (p *Process) BumpCheckEpoch() {
	e := p.fused.epoch.Add(1)
	p.jit.floor.Store(e)
}

// BumpCheckEpochExtent is the delta-update variant: it invalidates
// every cached check verdict (verdicts are cheap to recompute and may
// depend on any table word, so the epoch still bumps), but instead of
// condemning every compiled block it drops only the compiled blocks
// of the pages overlapping [lo, hi) — the discard floor stays put, so
// blocks outside the changed extent survive a dlopen. Sound because a
// block embeds only code bytes and pre-bound handlers, never a check
// verdict: fused check steps re-validate against the tables (and the
// new epoch) at execution time, so a surviving block cannot replay a
// pre-update verdict.
func (p *Process) BumpCheckEpochExtent(lo, hi int64) {
	p.fused.epoch.Add(1)
	first := lo / PageSize
	if first > 0 {
		first-- // a block one page back may span into the extent
	}
	last := (hi + PageSize - 1) / PageSize
	for pg := first; pg >= 0 && pg < last && pg < int64(len(p.icache)); pg++ {
		if c := p.icache[pg].Load(); c != nil {
			c.dropBlocks()
		}
	}
}

// CheckEpoch returns the current verdict-cache epoch.
func (p *Process) CheckEpoch() int64 { return p.fused.epoch.Load() }

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

	// and32 r11 — the masked target is what both the guest tload and
	// the verdict key see.
	r[visa.R11] = int64(uint32(r[visa.R11]))
	target := uint32(r[visa.R11])
	t.FusedExecs++

	// The epoch MUST be read before the table loads: a verdict records
	// "the loads said yes at this epoch", so the epoch bound to it may
	// be older than the loads (the verdict dies early — harmless) but
	// never newer (an old-CFG pass would survive a version bump).
	epoch := p.fused.epoch.Load()

	if v := site.verdict.Load(); v != nil && v.epoch == epoch && v.target == target {
		// Cached verdict: architecturally identical to a zero-retry
		// pass — tloadi, tload, cmp, je Ok — without the table loads.
		t.FusedVerdictHits++
		idv := int64(v.id)
		r[visa.R10], r[visa.R9] = idv, idv
		t.fa, t.fb, t.fFloat = idv, idv, false
		t.Instret += 4
		t.PC = pc + rewrite.CheckSeqSize
		return t.foldedBranch(ins)
	}

	baryOff := site.baryOff.Load()
	for retries := 0; ; retries++ {
		// Try: tloadi r10; tload r9, r11.
		bid := p.Tables.Load32(baryOff)
		tid := p.Tables.Load32(int64(target))
		r[visa.R10], r[visa.R9] = int64(bid), int64(tid)

		if bid == tid {
			// cmp; je Ok (taken): 4 instructions this round.
			t.fa, t.fb, t.fFloat = int64(bid), int64(tid), false
			t.Instret += int64(8*retries) + 4
			t.PC = pc + rewrite.CheckSeqSize
			site.verdict.Store(&fusedVerdict{epoch: epoch, target: target, id: bid})
			return t.foldedBranch(ins)
		}
		if tid&1 == 0 {
			// testb finds the validity bit clear; je Halt (taken); hlt:
			// 7 instructions this round.
			t.fa, t.fb, t.fFloat = 0, 0, false
			t.Instret += int64(8*retries) + 7
			t.PC = pc + rewrite.CheckHaltOffset
			return t.cfiFault(CheckIndirect, int64(target), "hlt")
		}
		t.fa, t.fb, t.fFloat = int64(bid&0xFFFF), int64(tid&0xFFFF), false
		if bid&0xFFFF == tid&0xFFFF {
			// Same version, different ECN — a true violation: cmpw;
			// jne Try falls through; hlt: 9 instructions this round.
			t.Instret += int64(8*retries) + 9
			t.PC = pc + rewrite.CheckHaltOffset
			return t.cfiFault(CheckIndirect, int64(target), "hlt")
		}
		// Version mismatch: jne Try (taken), 8 instructions, go again.
		if retries+1 >= maxFusedRetries {
			// An update storm (or an unpublished Bary ID) keeps the
			// versions apart. Retire the rounds and resume per-
			// instruction at Try so the spin stays interruptible by
			// Run's exit and budget polling. The folded branch (if any)
			// is NOT executed — per-instruction stepping will reach its
			// plain bytes after the re-run check passes.
			t.Instret += int64(8 * (retries + 1))
			t.PC = pc + rewrite.CheckTryOffset
			return nil
		}
	}
}

// foldedBranch completes a passed check whose slot folded the
// following indirect branch. On entry t.PC is the check span's end —
// where the interp engine would sit after je Ok — and R11 holds the
// masked, validated target. The alignment NOPs and the branch itself
// retire exactly as the interp engine would retire them; a
// verdict-cache hit reaches here too, so the memoized target transfers
// without re-decoding the branch. Slots without a fold (ins.R1 == 0)
// return immediately.
func (t *Thread) foldedBranch(ins *visa.Instr) error {
	if ins.R1 == 0 {
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

	// Epoch before any load (same ordering argument as stepFused). The
	// GOT slot is rewritten only inside update transactions, whose
	// completion bumps the epoch, so a verdict hit may also skip the
	// GOT reload: a check reusing the verdict linearizes before the
	// in-flight update, GOT rewrite included.
	epoch := p.fused.epoch.Load()

	if v := site.verdict.Load(); v != nil && v.epoch == epoch {
		// Cached verdict: replays a zero-retry pass — movi (already
		// retired), ld64, and32, tloadi, tload, cmp, je Ok.
		t.FusedVerdictHits++
		idv := int64(v.id)
		r[visa.R11] = int64(v.target)
		r[visa.R10], r[visa.R9] = idv, idv
		t.fa, t.fb, t.fFloat = idv, idv, false
		t.Instret += 6
		t.PC = pc + rewrite.PLTCheckSeqSize
		return t.foldedBranch(ins)
	}

	for retries := 0; ; retries++ {
		if retries > 0 {
			t.Instret++ // movi (the handler covered round 0's)
		}
		r[visa.R11] = gotAddr // movi's architectural effect
		// ld64 r11, [r11] — the GOT reload. It can fault like any guest
		// load; the fault PC is the ld64's own address and the load
		// still retires.
		t.Instret++
		t.PC = pc + rewrite.PLTCheckLoadOffset
		v, ok := t.load64(gotAddr)
		// Like every load, the destination is clobbered with the
		// (zero) loaded value even when the load faults.
		r[visa.R11] = int64(v)
		if !ok {
			return t.memFault(gotAddr, 8, visa.ProtRead)
		}
		// and32 r11.
		t.Instret++
		r[visa.R11] = int64(uint32(r[visa.R11]))
		target := uint32(r[visa.R11])

		// Try tail: tloadi r10; tload r9, r11.
		bid := p.Tables.Load32(baryOff)
		tid := p.Tables.Load32(int64(target))
		r[visa.R10], r[visa.R9] = int64(bid), int64(tid)

		if bid == tid {
			// cmp; je Ok (taken): 4 more this round.
			t.fa, t.fb, t.fFloat = int64(bid), int64(tid), false
			t.Instret += 4
			t.PC = pc + rewrite.PLTCheckSeqSize
			site.verdict.Store(&fusedVerdict{epoch: epoch, target: target, id: bid})
			return t.foldedBranch(ins)
		}
		if tid&1 == 0 {
			// testb; je Halt (taken); hlt: 7 more this round.
			t.fa, t.fb, t.fFloat = 0, 0, false
			t.Instret += 7
			t.PC = pc + rewrite.PLTCheckHaltOffset
			return t.cfiFault(CheckPLT, int64(target), "hlt")
		}
		t.fa, t.fb, t.fFloat = int64(bid&0xFFFF), int64(tid&0xFFFF), false
		if bid&0xFFFF == tid&0xFFFF {
			// cmpw; jne Try falls through; hlt: 9 more this round.
			t.Instret += 9
			t.PC = pc + rewrite.PLTCheckHaltOffset
			return t.cfiFault(CheckPLT, int64(target), "hlt")
		}
		// Version mismatch: jne Try (taken), 8 more, reload the GOT and
		// go again.
		t.Instret += 8
		if retries+1 >= maxFusedRetries {
			// Hand the spin back to the run loop at Try (= the span
			// start, so the slot re-enters bounded rounds) to stay
			// interruptible by exit/budget polling.
			t.PC = pc
			return nil
		}
	}
}
