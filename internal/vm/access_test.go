package vm

import (
	"fmt"
	"math"
	"testing"

	"mcfi/internal/visa"
)

// Guest pages of the access-boundary layout.
const (
	accScratch = visa.DataBase              // RW: warm-up accesses
	accRWEnd   = visa.DataBase + 2*PageSize // end of an RW page whose next page has no access
	accNoneEnd = visa.DataBase + 4*PageSize // end of a no-access page whose next page is RW
	accTop     = visa.SandboxSize - PageSize
	accLen     = visa.SandboxSize + visa.GuardSize // len(Mem)
	accSent    = 0x5a5a5a5a5a5a5a5a                // destination register before the access
	accValue   = -0x0123456789abcdf0               // value stores write
	accSP      = accScratch + PageSize             // SP at thread start
)

// accessAddrs are the boundary addresses every access is run at: a
// negative address, one where addr+n overflows, the last bytes of Mem,
// an 8-byte store from the top sandbox page into the read-only guard
// page, and the last bytes of pages whose neighbour has the other
// protection.
func accessAddrs() []int64 {
	addrs := []int64{-1, math.MaxInt64 - 3, visa.SandboxSize - 4}
	for i := int64(1); i <= 8; i++ {
		addrs = append(addrs, accLen-i, accRWEnd-i, accNoneEnd-i)
	}
	return addrs
}

// accessOp is one guest access: a load (ext sign- or zero-extends its
// n bytes into the destination) or a store, optionally preceded by the
// rewriter's sandbox mask (which blockjit's fill path fuses with the
// store), or a PUSH or POP, which access the word at SP.
type accessOp struct {
	op     visa.Op
	n      int64
	ext    func(uint64) int64
	masked bool
}

func (a accessOp) load() bool { return a.ext != nil }

func (a accessOp) stack() bool { return a.op == visa.PUSH || a.op == visa.POP }

func (a accessOp) String() string {
	if a.masked {
		return "andi+" + a.op.Name()
	}
	return a.op.Name()
}

func accessOps() []accessOp {
	ops := []accessOp{
		{op: visa.LD8, n: 1, ext: func(v uint64) int64 { return int64(int8(v)) }},
		{op: visa.LD8U, n: 1, ext: func(v uint64) int64 { return int64(uint8(v)) }},
		{op: visa.LD16, n: 2, ext: func(v uint64) int64 { return int64(int16(v)) }},
		{op: visa.LD16U, n: 2, ext: func(v uint64) int64 { return int64(uint16(v)) }},
		{op: visa.LD32, n: 4, ext: func(v uint64) int64 { return int64(int32(v)) }},
		{op: visa.LD32U, n: 4, ext: func(v uint64) int64 { return int64(uint32(v)) }},
		{op: visa.LD64, n: 8, ext: func(v uint64) int64 { return int64(v) }},
	}
	for _, st := range []accessOp{{op: visa.ST8, n: 1}, {op: visa.ST16, n: 2}, {op: visa.ST32, n: 4}, {op: visa.ST64, n: 8}} {
		ops = append(ops, st)
		st.masked = true
		ops = append(ops, st)
	}
	return append(ops,
		accessOp{op: visa.PUSH, n: 8},
		accessOp{op: visa.POP, n: 8, ext: func(v uint64) int64 { return int64(v) }})
}

// accessProgram is one compiled boundary case: where it starts, where
// its access and its final hlt sit, and the instructions retired before
// the access and in total on success.
type accessProgram struct {
	start, opPC, hltPC int64
	before, total      int64
}

// emitAccess assembles a three-pass loop around one access: two passes
// at accScratch (so the block compiler has compiled the loop body by
// the third) and a third at addr. The address is chosen without a
// branch — R1 = scratch + (R5 == 1) * (addr - scratch), wrapping — so
// the access stays inside one straight-line block. A PUSH or POP gets
// SP from R1, so the word it accesses is at addr too: SP is addr+8
// before a PUSH and addr before a POP.
func emitAccess(a *visa.Asm, op accessOp, addr int64) accessProgram {
	var pr accessProgram
	pr.start = visa.CodeBase + int64(a.Pos())
	label := fmt.Sprintf("loop%d", a.Pos())
	n := int64(0)
	emit := func(i visa.Instr) { a.Emit(i); n++ }
	emit(visa.Instr{Op: visa.MOVI, R1: visa.R3, Imm: accScratch})
	emit(visa.Instr{Op: visa.MOVI, R1: visa.R7, Imm: addr - accScratch})
	emit(visa.Instr{Op: visa.MOVI, R1: visa.R5, Imm: 3})
	a.Label(label)
	head := n
	emit(visa.Instr{Op: visa.MOV, R1: visa.R1, R2: visa.R3})
	emit(visa.Instr{Op: visa.CMPI, R1: visa.R5, Imm: 1})
	emit(visa.Instr{Op: visa.SET, R1: visa.CcE, R2: visa.R6})
	emit(visa.Instr{Op: visa.MUL, R1: visa.R6, R2: visa.R7})
	emit(visa.Instr{Op: visa.ADD, R1: visa.R1, R2: visa.R6})
	emit(visa.Instr{Op: visa.MOVI, R1: visa.R2, Imm: accSent})
	emit(visa.Instr{Op: visa.MOVI, R1: visa.R0, Imm: accValue})
	if op.masked {
		emit(visa.Instr{Op: visa.ANDI, R1: visa.R1, Imm: visa.StoreMask})
	}
	if op.op == visa.PUSH {
		emit(visa.Instr{Op: visa.ADDI, R1: visa.R1, Imm: 8})
	}
	if op.stack() {
		emit(visa.Instr{Op: visa.MOV, R1: visa.SP, R2: visa.R1})
	}
	pr.opPC = visa.CodeBase + int64(a.Pos())
	if op.load() {
		emit(visa.Instr{Op: op.op, R1: visa.R2, R2: visa.R1})
	} else {
		emit(visa.Instr{Op: op.op, R1: visa.R0, R2: visa.R1})
	}
	body := n - head
	emit(visa.Instr{Op: visa.ADDI, R1: visa.R5, Imm: -1})
	emit(visa.Instr{Op: visa.CMPI, R1: visa.R5, Imm: 0})
	a.EmitBranch(visa.JNE, label)
	n++
	pr.hltPC = visa.CodeBase + int64(a.Pos())
	emit(visa.Instr{Op: visa.HLT})
	loop := n - 1 - head
	pr.before = head + 2*loop + body - 1
	pr.total = n + 2*loop
	return pr
}

// newAccessProcess lays out the boundary pages around a fixed byte
// pattern, so loads read distinct, sign-bit-mixed values. Every page is
// made RW to be filled, then given its final protection.
func newAccessProcess(e Engine, code []byte) *Process {
	p := NewProcess()
	p.SetJITThreshold(1)
	useEngine(p, e)
	copy(p.Mem[visa.CodeBase:], code)
	p.Protect(visa.CodeBase, int64(len(code)), visa.ProtRead|visa.ProtExec)
	for _, r := range [][2]int64{{accScratch, accNoneEnd + PageSize}, {accTop, accLen}} {
		p.Protect(r[0], r[1]-r[0], visa.ProtRead|visa.ProtWrite)
		for a := r[0]; a < r[1]; a++ {
			p.Mem[a] = byte(a*0x9d + 0x5b)
		}
	}
	p.Protect(accRWEnd, 2*PageSize, 0)
	p.Protect(accLen-visa.GuardSize, visa.GuardSize, visa.ProtRead)
	return p
}

// accessOutcome is everything an access may change, as the boundary
// test compares it.
type accessOutcome struct {
	kind    FaultKind
	pc      int64
	msg     string
	dst     int64
	sp      int64
	instret int64
	window  string
}

// memWindow returns Mem's bytes around [addr, addr+8), clipped to Mem.
func memWindow(p *Process, addr int64) string {
	lo, hi := addr-8, addr+16
	if addr < 0 || addr > math.MaxInt64-16 {
		return ""
	}
	lo, hi = max(lo, 0), min(hi, int64(len(p.Mem)))
	if lo >= hi {
		return ""
	}
	return string(p.Mem[lo:hi])
}

// wantAccess is the guest-access contract, spelled out independently of
// the VM: the range covers the whole access against len(Mem) (as the
// literal addr+n test, so an overflowing addr+n passes it and faults on
// protection), protection is checked on the first byte's page only, a
// faulting load zeroes its destination, and the access retires before
// it faults. PUSH decrements SP before its store and keeps the
// decrement when the store faults; POP, unlike a load, changes neither
// SP nor its destination when it faults, and adds 8 to SP when it
// succeeds.
func wantAccess(p *Process, op accessOp, addr int64, pr accessProgram) accessOutcome {
	if op.masked {
		addr &= visa.StoreMask
	}
	sp := int64(accSP)
	if op.stack() {
		sp = addr
	}
	prot := uint32(visa.ProtWrite)
	if op.load() {
		prot = visa.ProtRead
	}
	msg := ""
	switch {
	case addr < 0 || addr+op.n > int64(len(p.Mem)):
		msg = fmt.Sprintf("access %#x+%d out of range", addr, op.n)
	case p.Prot(addr)&prot == 0:
		msg = fmt.Sprintf("access %#x lacks prot %d", addr, prot)
	}
	w := accessOutcome{dst: accSent, sp: sp, window: memWindow(p, addr)}
	if msg != "" {
		w.kind, w.pc, w.msg, w.instret = FaultMem, pr.opPC, msg, pr.before+1
		if op.load() && op.op != visa.POP {
			w.dst = 0
		}
		return w
	}
	w.kind, w.pc, w.msg, w.instret = FaultCFI, pr.hltPC, "hlt", pr.total
	if op.op == visa.POP {
		w.sp += 8
	}
	if op.load() {
		var v uint64
		for i := int64(0); i < op.n; i++ {
			v |= uint64(p.Mem[addr+i]) << (8 * i)
		}
		w.dst = op.ext(v)
		return w
	}
	b := []byte(w.window)
	off := addr - max(addr-8, 0)
	for i := int64(0); i < op.n; i++ {
		b[off+i] = byte(int64(accValue) >> (8 * i))
	}
	w.window = string(b)
	return w
}

// TestGuestAccessBoundaries runs every load and store width, PUSH and
// POP at every boundary address through Run under every engine and
// under blockjit with compilation disabled (engineCold, the threaded
// handlers), and requires each one's fault, destination register, SP,
// instret and memory to match the guest-access contract — so all agree with each other
// and with it. The access runs on a loop's third pass, after the block
// compiler has compiled the loop, so blockjit's memory steps are the
// ones exercised.
func TestGuestAccessBoundaries(t *testing.T) {
	addrs := accessAddrs()
	for _, op := range accessOps() {
		a := visa.NewAsm()
		progs := make([]accessProgram, len(addrs))
		for i, addr := range addrs {
			progs[i] = emitAccess(a, op, addr)
		}
		if err := a.Finish(); err != nil {
			t.Fatal(err)
		}
		for _, e := range testEngines() {
			p := newAccessProcess(e, a.Code)
			for i, addr := range addrs {
				pr := progs[i]
				want := wantAccess(p, op, addr, pr)
				th := p.NewThread(pr.start, accSP)
				err := th.Run(1 << 16)
				f, ok := err.(*Fault)
				if !ok {
					t.Fatalf("%s %s at %#x: Run = %v, want a fault", e, op, addr, err)
				}
				eff := addr
				if op.masked {
					eff &= visa.StoreMask
				}
				got := accessOutcome{f.Kind, f.PC, f.Msg, th.Reg[visa.R2], th.Reg[visa.SP], th.Instret, memWindow(p, eff)}
				if got != want {
					t.Errorf("%s %s at %#x:\n got %+v\nwant %+v", e, op, addr, got, want)
				}
			}
			if e == EngineBlockJIT && p.CheckStatsSnapshot().JITBlockRuns == 0 {
				t.Errorf("%s: no compiled block ran; the memory steps went untested", op)
			}
		}
	}
}
