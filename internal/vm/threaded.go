// Direct-threaded handlers: blockjit's cold path. Instead of decoding
// and switching on the opcode at every step, each instruction-cache
// slot (cache.go) stores its operation's func pointer alongside the
// predecoded visa.Instr, so executing one cold instruction is a single
// indirect call; compiled blocks (blockjit.go) call the same handlers
// for every step that can leave the VM or fault outside guest memory,
// and run guest memory accesses as micro-ops over the same accessors.
//
// On top of pointer dispatch the fill path fuses two sequence shapes:
//
//   - check + indirect branch: the jmpr/callr/jrestore following a
//     fused check transaction (plus the rewriter's alignment NOPs)
//     folds into the superinstruction, so a checked transfer is one
//     host step that branches to the validated target without
//     re-decoding the branch (fused.go).
//   - sandbox-mask + store: the rewriter's "andi r, StoreMask" is
//     always immediately followed by the store it masks; the pair
//     becomes one trace superinstruction (stepTraceMaskStore below).
//
// Every handler reproduces the interp engine's architectural behavior
// bit-exactly: Instret is incremented before the operation (a faulting
// instruction still retires, as in Step), the fault PC is the
// faulting instruction's address, and registers/flags mutate in the
// same order — including the quirk that a faulting load still clobbers
// its destination register with the zero value.
package vm

import (
	"math"

	"mcfi/internal/rewrite"
	"mcfi/internal/visa"
)

// stepFn executes one predecoded instruction. t.PC == pc on entry; the
// handler retires the instruction (Instret++ first, so faults retire
// too), performs it, and sets t.PC to the continuation on success. On a
// fault it returns the *Fault with t.PC still naming the faulting
// instruction. next is pc plus the slot's encoded size.
//
// A handler that transfers control — a jump, a taken branch, a call or
// return, a check whose branch folded into it — reports the target to
// the block compiler's profile (Thread.noteStart), so the run loop
// itself never has to tell block starts from straight-line code.
type stepFn func(t *Thread, ins *visa.Instr, pc, next int64) error

// opFuncs maps every opcode (including the fused pseudo-opcodes) to
// its handler; unknown bytes get the decode-fault handler. Built once
// at init, mirroring Step's switch case for case; the pseudo-opcodes
// exist only here, since Step never sees a predecoded slot.
var opFuncs [256]stepFn

// storeInsSize is the encoded size of the STx instructions (they share
// one layout), used to recover the store's PC inside a fused
// mask+store trace slot.
var storeInsSize = int64(visa.ST64.Size())

func init() {
	for i := range opFuncs {
		opFuncs[i] = stepBadOp
	}
	f := func(op visa.Op, fn stepFn) { opFuncs[op] = fn }

	f(visa.NOP, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.PC = next
		return nil
	})
	f(visa.HLT, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		return t.cfiHalt()
	})
	f(opFusedCheck, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++ // the leading and32
		return t.noteTransfer(next, t.stepFused(pc, ins))
	})
	f(opFusedCheckPLT, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++ // the leading movi (GOT address)
		return t.noteTransfer(next, t.stepFusedPLT(pc, ins))
	})
	f(opTraceMaskStore, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++ // the leading andi (sandbox mask)
		return t.stepTraceMaskStore(ins, next)
	})
	f(visa.MOVI, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = ins.Imm
		t.PC = next
		return nil
	})
	f(visa.MOV, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = t.Reg[ins.R2]
		t.PC = next
		return nil
	})

	// Loads. As in Step, the destination register is written before the
	// error check, so a faulting load clobbers it with zero.
	f(visa.LD8, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		addr := t.Reg[ins.R2] + ins.Imm
		v, ok := t.load8(addr)
		t.Reg[ins.R1] = int64(int8(v))
		if !ok {
			return t.memFault(addr, 1, visa.ProtRead)
		}
		t.PC = next
		return nil
	})
	f(visa.LD8U, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		addr := t.Reg[ins.R2] + ins.Imm
		v, ok := t.load8(addr)
		t.Reg[ins.R1] = int64(v)
		if !ok {
			return t.memFault(addr, 1, visa.ProtRead)
		}
		t.PC = next
		return nil
	})
	f(visa.LD16, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		addr := t.Reg[ins.R2] + ins.Imm
		v, ok := t.load16(addr)
		t.Reg[ins.R1] = int64(int16(v))
		if !ok {
			return t.memFault(addr, 2, visa.ProtRead)
		}
		t.PC = next
		return nil
	})
	f(visa.LD16U, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		addr := t.Reg[ins.R2] + ins.Imm
		v, ok := t.load16(addr)
		t.Reg[ins.R1] = int64(v)
		if !ok {
			return t.memFault(addr, 2, visa.ProtRead)
		}
		t.PC = next
		return nil
	})
	f(visa.LD32, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		addr := t.Reg[ins.R2] + ins.Imm
		v, ok := t.load32(addr)
		t.Reg[ins.R1] = int64(int32(v))
		if !ok {
			return t.memFault(addr, 4, visa.ProtRead)
		}
		t.PC = next
		return nil
	})
	f(visa.LD32U, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		addr := t.Reg[ins.R2] + ins.Imm
		v, ok := t.load32(addr)
		t.Reg[ins.R1] = int64(v)
		if !ok {
			return t.memFault(addr, 4, visa.ProtRead)
		}
		t.PC = next
		return nil
	})
	f(visa.LD64, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		addr := t.Reg[ins.R2] + ins.Imm
		v, ok := t.load64(addr)
		t.Reg[ins.R1] = int64(v)
		if !ok {
			return t.memFault(addr, 8, visa.ProtRead)
		}
		t.PC = next
		return nil
	})

	// Stores.
	f(visa.ST8, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if addr := t.Reg[ins.R2] + ins.Imm; !t.store8(addr, uint8(t.Reg[ins.R1])) {
			return t.memFault(addr, 1, visa.ProtWrite)
		}
		t.PC = next
		return nil
	})
	f(visa.ST16, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if addr := t.Reg[ins.R2] + ins.Imm; !t.store16(addr, uint16(t.Reg[ins.R1])) {
			return t.memFault(addr, 2, visa.ProtWrite)
		}
		t.PC = next
		return nil
	})
	f(visa.ST32, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if addr := t.Reg[ins.R2] + ins.Imm; !t.store32(addr, uint32(t.Reg[ins.R1])) {
			return t.memFault(addr, 4, visa.ProtWrite)
		}
		t.PC = next
		return nil
	})
	f(visa.ST64, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if addr := t.Reg[ins.R2] + ins.Imm; !t.store64(addr, uint64(t.Reg[ins.R1])) {
			return t.memFault(addr, 8, visa.ProtWrite)
		}
		t.PC = next
		return nil
	})

	// Integer ALU.
	f(visa.ADD, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] += t.Reg[ins.R2]
		t.PC = next
		return nil
	})
	f(visa.SUB, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] -= t.Reg[ins.R2]
		t.PC = next
		return nil
	})
	f(visa.MUL, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] *= t.Reg[ins.R2]
		t.PC = next
		return nil
	})
	f(visa.DIV, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if t.Reg[ins.R2] == 0 {
			return t.fault(FaultArith, "division by zero")
		}
		t.Reg[ins.R1] /= t.Reg[ins.R2]
		t.PC = next
		return nil
	})
	f(visa.MOD, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if t.Reg[ins.R2] == 0 {
			return t.fault(FaultArith, "mod by zero")
		}
		t.Reg[ins.R1] %= t.Reg[ins.R2]
		t.PC = next
		return nil
	})
	f(visa.UDIV, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if t.Reg[ins.R2] == 0 {
			return t.fault(FaultArith, "division by zero")
		}
		t.Reg[ins.R1] = int64(uint64(t.Reg[ins.R1]) / uint64(t.Reg[ins.R2]))
		t.PC = next
		return nil
	})
	f(visa.UMOD, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if t.Reg[ins.R2] == 0 {
			return t.fault(FaultArith, "mod by zero")
		}
		t.Reg[ins.R1] = int64(uint64(t.Reg[ins.R1]) % uint64(t.Reg[ins.R2]))
		t.PC = next
		return nil
	})
	f(visa.AND, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] &= t.Reg[ins.R2]
		t.PC = next
		return nil
	})
	f(visa.OR, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] |= t.Reg[ins.R2]
		t.PC = next
		return nil
	})
	f(visa.XOR, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] ^= t.Reg[ins.R2]
		t.PC = next
		return nil
	})
	f(visa.SHL, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] <<= uint64(t.Reg[ins.R2]) & 63
		t.PC = next
		return nil
	})
	f(visa.SHR, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = int64(uint64(t.Reg[ins.R1]) >> (uint64(t.Reg[ins.R2]) & 63))
		t.PC = next
		return nil
	})
	f(visa.SAR, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] >>= uint64(t.Reg[ins.R2]) & 63
		t.PC = next
		return nil
	})
	f(visa.NEG, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = -t.Reg[ins.R1]
		t.PC = next
		return nil
	})
	f(visa.NOTI, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = ^t.Reg[ins.R1]
		t.PC = next
		return nil
	})
	f(visa.ADDI, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] += ins.Imm
		t.PC = next
		return nil
	})
	f(visa.ANDI, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] &= ins.Imm
		t.PC = next
		return nil
	})

	// Flags and conditional control flow.
	f(visa.CMP, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.fa, t.fb, t.fFloat = t.Reg[ins.R1], t.Reg[ins.R2], false
		t.PC = next
		return nil
	})
	f(visa.CMPI, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.fa, t.fb, t.fFloat = t.Reg[ins.R1], ins.Imm, false
		t.PC = next
		return nil
	})
	f(visa.CMPW, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.fa, t.fb, t.fFloat = t.Reg[ins.R1]&0xFFFF, t.Reg[ins.R2]&0xFFFF, false
		t.PC = next
		return nil
	})
	f(visa.TESTB, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.fa, t.fb, t.fFloat = t.Reg[ins.R1]&ins.Imm&0xFF, 0, false
		t.PC = next
		return nil
	})
	for op := range jccToCond {
		f(op, stepJcc)
	}
	f(visa.SET, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if t.cond(ins.R1) {
			t.Reg[ins.R2] = 1
		} else {
			t.Reg[ins.R2] = 0
		}
		t.PC = next
		return nil
	})

	// Unconditional control flow.
	f(visa.JMP, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.PC = next + ins.Imm
		t.noteStart(t.PC)
		return nil
	})
	f(visa.CALL, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if err := t.push(next); err != nil {
			return err
		}
		t.PC = next + ins.Imm
		t.noteStart(t.PC)
		return nil
	})
	f(visa.CALLR, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if err := t.push(next); err != nil {
			return err
		}
		t.PC = t.Reg[ins.R1]
		t.noteStart(t.PC)
		return nil
	})
	f(visa.JMPR, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.PC = t.Reg[ins.R1]
		t.noteStart(t.PC)
		return nil
	})
	f(visa.RET, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		v, err := t.pop()
		if err != nil {
			return err
		}
		t.PC = v
		t.noteStart(v)
		return nil
	})
	f(visa.PUSH, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if err := t.push(t.Reg[ins.R1]); err != nil {
			return err
		}
		t.PC = next
		return nil
	})
	f(visa.POP, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		v, err := t.pop()
		if err != nil {
			return err
		}
		t.Reg[ins.R1] = v
		t.PC = next
		return nil
	})
	f(visa.SYS, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if t.P.Handler == nil {
			return t.fault(FaultSys, "no syscall handler")
		}
		t.PC = next // handlers observe the continuation PC
		if err := t.P.Handler.Syscall(t, int(ins.Imm)); err != nil {
			return err
		}
		if t.P.exited.Load() {
			return ErrExited
		}
		return t.noteTransfer(next, nil) // the handler may have redirected t.PC
	})

	// Floating point and conversions.
	f(visa.FADD, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.fop(ins, func(a, b float64) float64 { return a + b })
		t.PC = next
		return nil
	})
	f(visa.FSUB, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.fop(ins, func(a, b float64) float64 { return a - b })
		t.PC = next
		return nil
	})
	f(visa.FMUL, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.fop(ins, func(a, b float64) float64 { return a * b })
		t.PC = next
		return nil
	})
	f(visa.FDIV, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.fop(ins, func(a, b float64) float64 { return a / b })
		t.PC = next
		return nil
	})
	f(visa.FCMP, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.ffa = math.Float64frombits(uint64(t.Reg[ins.R1]))
		t.ffb = math.Float64frombits(uint64(t.Reg[ins.R2]))
		t.fFloat = true
		t.PC = next
		return nil
	})
	f(visa.CVIF, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = int64(math.Float64bits(float64(t.Reg[ins.R1])))
		t.PC = next
		return nil
	})
	f(visa.CVFI, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		fv := math.Float64frombits(uint64(t.Reg[ins.R1]))
		switch {
		case math.IsNaN(fv):
			t.Reg[ins.R1] = 0
		case fv >= math.MaxInt64:
			t.Reg[ins.R1] = math.MaxInt64
		case fv <= math.MinInt64:
			t.Reg[ins.R1] = math.MinInt64
		default:
			t.Reg[ins.R1] = int64(fv)
		}
		t.PC = next
		return nil
	})

	// Width changes.
	f(visa.SX8, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = int64(int8(t.Reg[ins.R1]))
		t.PC = next
		return nil
	})
	f(visa.SX16, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = int64(int16(t.Reg[ins.R1]))
		t.PC = next
		return nil
	})
	f(visa.SX32, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = int64(int32(t.Reg[ins.R1]))
		t.PC = next
		return nil
	})
	f(visa.ZX8, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = int64(uint8(t.Reg[ins.R1]))
		t.PC = next
		return nil
	})
	f(visa.ZX16, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = int64(uint16(t.Reg[ins.R1]))
		t.PC = next
		return nil
	})
	f(visa.AND32, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		t.Reg[ins.R1] = int64(uint32(t.Reg[ins.R1]))
		t.PC = next
		return nil
	})

	// MCFI table loads.
	f(visa.TLOAD, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if t.P.Tables == nil {
			return t.fault(FaultMem, "tload without tables")
		}
		t.Reg[ins.R1] = int64(t.P.Tables.Load32(t.Reg[ins.R2]))
		t.PC = next
		return nil
	})
	f(visa.TLOADI, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if t.P.Tables == nil {
			return t.fault(FaultMem, "tloadi without tables")
		}
		t.Reg[ins.R1] = int64(t.P.Tables.Load32(ins.Imm))
		t.PC = next
		return nil
	})

	// setjmp/longjmp.
	f(visa.SETJ, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		t.Instret++
		if err := t.setjmp(t.Reg[ins.R1], next); err != nil {
			return err
		}
		t.Reg[visa.R0] = 0
		t.PC = next
		return nil
	})
	f(visa.JRESTORE, func(t *Thread, ins *visa.Instr, pc, next int64) error {
		// Same operand read/write order as Step (R2/R3 are read after
		// SP/FP are written, in case they name those registers).
		t.Instret++
		t.Reg[visa.SP] = t.Reg[ins.R1]
		t.Reg[visa.FP] = t.Reg[ins.R2]
		t.PC = t.Reg[ins.R3]
		t.noteStart(t.PC)
		return nil
	})
}

func stepBadOp(t *Thread, ins *visa.Instr, pc, next int64) error {
	t.Instret++
	return t.fault(FaultDecode, "unimplemented opcode %s", ins.Op.Name())
}

func stepJcc(t *Thread, ins *visa.Instr, pc, next int64) error {
	t.Instret++
	if cc := jccCond[ins.Op]; cc != 0 && t.cond(cc-1) {
		t.PC = next + ins.Imm
		t.noteStart(t.PC)
		return nil
	}
	t.PC = next
	return nil
}

// noteTransfer profiles t.PC as a block start when a handler that may
// transfer control did (it left PC off next without faulting), and
// returns the handler's result.
func (t *Thread) noteTransfer(next int64, err error) error {
	if err == nil && t.PC != next {
		t.noteStart(t.PC)
	}
	return err
}

// tryFuseTrace upgrades a freshly decoded instruction into a trace
// superinstruction when it starts a fusible straight-line pair. The
// only shape today is the rewriter's sandbox-mask + store: EmitStoreMask
// always emits "andi r, StoreMask" immediately before the store it
// masks, so the pair executes as one host step. Fusing is keyed on the
// byte shapes alone (rewrite.IsMaskStorePair), so a coincidental
// guest-authored pair fuses too — harmlessly, because the handler
// reproduces both instructions' architectural effects exactly.
func (p *Process) tryFuseTrace(ins visa.Instr, n int, pc int64) (visa.Instr, int) {
	if ins.Op != visa.ANDI || ins.Imm != visa.StoreMask {
		return ins, n
	}
	st, n2, err := visa.Decode(p.Mem, int(pc)+n)
	if err != nil || !rewrite.IsMaskStorePair(ins, st) {
		return ins, n
	}
	end := pc + int64(n+n2)
	if end > int64(len(p.Mem)) || p.Prot(end-1)&visa.ProtExec == 0 {
		return ins, n
	}
	var sz byte
	switch st.Op {
	case visa.ST8:
		sz = 1
	case visa.ST16:
		sz = 2
	case visa.ST32:
		sz = 4
	case visa.ST64:
		sz = 8
	default:
		return ins, n
	}
	// R1 = masked address register, R2 = store source register,
	// R3 = store width, Imm = store displacement. The mask constant is
	// implied (the pair only fuses when it is visa.StoreMask).
	return visa.Instr{Op: opTraceMaskStore, R1: ins.R1, R2: st.R1, R3: sz, Imm: st.Imm}, n + n2
}

// stepTraceMaskStore executes a fused sandbox-mask + store pair. The
// caller has retired the andi; this routine applies the mask, then
// retires and performs the store with the interp engine's exact fault
// behavior (the fault PC is the store's own address and the store
// counts as retired).
func (t *Thread) stepTraceMaskStore(ins *visa.Instr, next int64) error {
	r := &t.Reg
	r[ins.R1] &= visa.StoreMask
	t.PC = next - storeInsSize
	if t.Instret >= t.edge {
		return nil // the budget ends on the mask; the store steps alone
	}
	t.Instret++
	addr, v := r[ins.R1]+ins.Imm, r[ins.R2]
	var ok bool
	switch ins.R3 {
	case 1:
		ok = t.store8(addr, uint8(v))
	case 2:
		ok = t.store16(addr, uint16(v))
	case 4:
		ok = t.store32(addr, uint32(v))
	default: // 8
		ok = t.store64(addr, uint64(v))
	}
	if !ok {
		return t.memFault(addr, int64(ins.R3), visa.ProtWrite)
	}
	t.PC = next
	return nil
}
