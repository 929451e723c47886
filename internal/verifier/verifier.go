// Package verifier implements MCFI's independent modular verifier
// (paper §7): it disassembles an instrumented MCFI module — the
// auxiliary information makes complete disassembly possible — and
// checks that
//
//   - every indirect branch is instrumented with a well-formed check
//     transaction (returns are the popq/jmpq translation; PLT entries
//     reload their GOT slot on retry),
//   - no raw ret instruction survives rewriting,
//   - every memory write is sandboxed (masked, or through the trusted
//     stack/frame registers),
//   - every indirect-branch target is four-byte aligned,
//   - direct branches land on instruction boundaries, and
//   - jump-table indirect jumps (IBSwitch) follow the bounded-index
//     pattern with all table entries at instruction boundaries.
//
// The verifier removes the rewriter (and the compiler behind it) from
// the trusted computing base: a module that passes these checks cannot
// escape the CFG that the ID tables encode, no matter which toolchain
// produced it.
package verifier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"mcfi/internal/module"
	"mcfi/internal/visa"
)

// Error is one verification finding.
type Error struct {
	Offset int
	Msg    string
}

func (e *Error) Error() string { return fmt.Sprintf("offset %#x: %s", e.Offset, e.Msg) }

const maxFindings = 50

type verifier struct {
	obj        *module.Object
	code       []decoded // the disassembly, in offset order
	ibAt       map[int]*module.IndirectBranch
	relocSites map[int]bool // offsets of rel32 fields patched by the linker
	findings   []error
}

// decoded is one disassembled instruction. The checks walk the
// disassembly in offset order, so the findings, and which of them the
// maxFindings cap keeps, are the same on every run.
type decoded struct {
	off int
	ins visa.Instr
	// afterGap marks the first instruction of the code and the first
	// after a jump table: no pattern may span into it from before.
	afterGap bool
}

// at returns the index of the instruction starting at off, or -1 when
// off is not an instruction boundary.
func (v *verifier) at(off int) int {
	i, found := sort.Find(len(v.code), func(i int) int { return off - v.code[i].off })
	if !found {
		return -1
	}
	return i
}

// instrAt returns the instruction starting at off, if any.
func (v *verifier) instrAt(off int) (visa.Instr, bool) {
	if i := v.at(off); i >= 0 {
		return v.code[i].ins, true
	}
	return visa.Instr{}, false
}

// prev returns the offset of the instruction that falls through into
// the one at off, or -1 when off is no boundary or follows a gap.
func (v *verifier) prev(off int) int {
	i := v.at(off)
	if i <= 0 || v.code[i].afterGap {
		return -1
	}
	return v.code[i-1].off
}

// Verify checks one instrumented MCFI module.
func Verify(obj *module.Object) error {
	if !obj.Instrumented {
		return fmt.Errorf("verifier: module %q is not instrumented", obj.Name)
	}
	v := &verifier{
		obj:        obj,
		ibAt:       map[int]*module.IndirectBranch{},
		relocSites: map[int]bool{},
	}
	for i := range obj.Aux.IBs {
		ib := &obj.Aux.IBs[i]
		v.ibAt[ib.Offset] = ib
	}
	for _, r := range obj.CodeRelocs {
		if r.Kind == module.RelCall32 {
			v.relocSites[r.Offset] = true
		}
	}

	v.disassemble()
	v.checkIndirectBranches()
	v.checkStores()
	v.checkDirectBranches()
	v.checkAlignment()
	v.checkSwitches()

	if len(v.findings) > 0 {
		return errors.Join(v.findings...)
	}
	return nil
}

func (v *verifier) errf(off int, format string, args ...interface{}) {
	if len(v.findings) < maxFindings {
		v.findings = append(v.findings, &Error{Offset: off, Msg: fmt.Sprintf(format, args...)})
	}
}

// skipRanges returns the sorted jump-table byte ranges embedded in the
// code, which the disassembler must step over.
func (v *verifier) skipRanges() [][2]int {
	var rs [][2]int
	for _, ib := range v.obj.Aux.IBs {
		if ib.TableLen > 0 {
			rs = append(rs, [2]int{ib.TableOff, ib.TableOff + ib.TableLen})
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i][0] < rs[j][0] })
	return rs
}

// disassemble decodes the whole code section, skipping jump tables.
// Complete disassembly is the property the aux info buys (paper §7).
func (v *verifier) disassemble() {
	skips := v.skipRanges()
	si := 0
	off := 0
	gap := true
	code := v.obj.Code
	for off < len(code) {
		for si < len(skips) && off >= skips[si][1] {
			si++
		}
		if si < len(skips) && off >= skips[si][0] {
			off = skips[si][1]
			gap = true // no pattern may span a table
			continue
		}
		ins, n, err := visa.Decode(code, off)
		if err != nil {
			v.errf(off, "disassembly failed: %v", err)
			return
		}
		v.code = append(v.code, decoded{off: off, ins: ins, afterGap: gap})
		gap = false
		off += n
	}
}

// expect matches one instruction at off and returns the next offset.
type matcher struct {
	v   *verifier
	off int
	ok  bool
}

func (m *matcher) expect(pred func(visa.Instr) bool, what string) visa.Instr {
	if !m.ok {
		return visa.Instr{}
	}
	ins, found := m.v.instrAt(m.off)
	if !found {
		m.v.errf(m.off, "check transaction: expected %s at a non-boundary", what)
		m.ok = false
		return visa.Instr{}
	}
	if !pred(ins) {
		m.v.errf(m.off, "check transaction: expected %s, found %q", what, ins.String())
		m.ok = false
		return visa.Instr{}
	}
	m.off += ins.Size()
	return ins
}

func opIs(op visa.Op) func(visa.Instr) bool {
	return func(i visa.Instr) bool { return i.Op == op }
}

// checkIndirectBranches verifies every instrumented-branch site and
// rejects stray indirect branches and raw rets.
func (v *verifier) checkIndirectBranches() {
	// Every decoded indirect branch must be an aux-declared site.
	for _, d := range v.code {
		off, ins := d.off, d.ins
		switch ins.Op {
		case visa.RET:
			v.errf(off, "raw ret survived rewriting")
		case visa.CALLR, visa.JMPR, visa.JRESTORE:
			if _, declared := v.ibAt[off]; !declared {
				v.errf(off, "undeclared indirect branch %q", ins.String())
			}
		}
	}
	for _, ib := range v.obj.Aux.IBs {
		switch ib.Kind {
		case module.IBSwitch:
			continue // validated separately
		default:
			v.checkCheckedSite(ib)
		}
	}
}

// checkCheckedSite validates the Fig. 4 instruction sequence for one
// instrumented indirect branch.
func (v *verifier) checkCheckedSite(ib module.IndirectBranch) {
	if ib.TLoadIOffset < 0 {
		v.errf(ib.Offset, "%s branch lacks a check transaction", ib.Kind)
		return
	}
	tl, ok := v.instrAt(ib.TLoadIOffset)
	if !ok || tl.Op != visa.TLOADI || tl.R1 != visa.R10 {
		v.errf(ib.TLoadIOffset, "%s: expected tloadi r10 at the Try point", ib.Kind)
		return
	}
	// The retry target: ordinary sites re-run from the TLOADI; PLT
	// sites re-run from the GOT reload (movi/ld64) before it.
	tryOff := ib.TLoadIOffset
	switch ib.Kind {
	case module.IBRet:
		// ... pop r11; and32 r11; Try: ...
		and := v.prev(ib.TLoadIOffset)
		if and < 0 {
			v.errf(ib.TLoadIOffset, "ret check: missing and32 before Try")
			return
		}
		if i, _ := v.instrAt(and); i.Op != visa.AND32 || i.R1 != visa.R11 {
			v.errf(and, "ret check: expected and32 r11, found %q", i.String())
			return
		}
		pop := v.prev(and)
		if pop < 0 {
			v.errf(and, "ret check: missing pop r11")
			return
		}
		if i, _ := v.instrAt(pop); i.Op != visa.POP || i.R1 != visa.R11 {
			v.errf(pop, "ret check: expected pop r11, found %q", i.String())
			return
		}
	case module.IBPLT:
		// Try: movi r11, got; ld64 r11, [r11+0]; and32 r11; ...
		and := v.prev(ib.TLoadIOffset)
		ld := -1
		movi := -1
		if and >= 0 {
			ld = v.prev(and)
		}
		if ld >= 0 {
			movi = v.prev(ld)
		}
		if and < 0 || ld < 0 || movi < 0 {
			v.errf(ib.TLoadIOffset, "plt check: truncated preamble")
			return
		}
		if i, _ := v.instrAt(and); i.Op != visa.AND32 || i.R1 != visa.R11 {
			v.errf(and, "plt check: expected and32 r11")
			return
		}
		if i, _ := v.instrAt(ld); i.Op != visa.LD64 || i.R1 != visa.R11 || i.R2 != visa.R11 || i.Imm != 0 {
			v.errf(ld, "plt check: expected ld64 r11, [r11+0]")
			return
		}
		if i, _ := v.instrAt(movi); i.Op != visa.MOVI || i.R1 != visa.R11 || int(i.Imm) != ib.GotSlot {
			v.errf(movi, "plt check: expected movi r11, <got slot %#x>", ib.GotSlot)
			return
		}
		tryOff = movi // retry must reload the GOT entry (paper §5.2)
	default:
		// icall/tailjmp/longjmp: and32 r11; Try: ...
		and := v.prev(ib.TLoadIOffset)
		if and < 0 {
			v.errf(ib.TLoadIOffset, "%s check: missing and32 before Try", ib.Kind)
			return
		}
		if i, _ := v.instrAt(and); i.Op != visa.AND32 || i.R1 != visa.R11 {
			v.errf(and, "%s check: expected and32 r11, found %q", ib.Kind, i.String())
			return
		}
	}

	m := &matcher{v: v, off: ib.TLoadIOffset, ok: true}
	m.expect(opIs(visa.TLOADI), "tloadi r10")
	m.expect(func(i visa.Instr) bool {
		return i.Op == visa.TLOAD && i.R1 == visa.R9 && i.R2 == visa.R11
	}, "tload r9, r11")
	m.expect(func(i visa.Instr) bool {
		return i.Op == visa.CMP && i.R1 == visa.R10 && i.R2 == visa.R9
	}, "cmp r10, r9")
	je := m.expect(opIs(visa.JE), "je Ok")
	jeAt := m.off - je.Size()
	m.expect(func(i visa.Instr) bool {
		return i.Op == visa.TESTB && i.R1 == visa.R9 && i.Imm == 1
	}, "testb r9, 1")
	jz := m.expect(opIs(visa.JE), "jz Halt")
	jzAt := m.off - jz.Size()
	m.expect(func(i visa.Instr) bool {
		return i.Op == visa.CMPW && i.R1 == visa.R10 && i.R2 == visa.R9
	}, "cmpw r10, r9")
	jne := m.expect(opIs(visa.JNE), "jne Try")
	jneAt := m.off - jne.Size()
	hltAt := m.off
	m.expect(opIs(visa.HLT), "hlt")
	okAt := m.off
	if !m.ok {
		return
	}
	// Control-flow arithmetic of the pattern.
	if jeAt+je.Size()+int(je.Imm) != okAt {
		v.errf(jeAt, "je must target the Ok label")
	}
	if jzAt+jz.Size()+int(jz.Imm) != hltAt {
		v.errf(jzAt, "jz must target the Halt label")
	}
	if jneAt+jne.Size()+int(jne.Imm) != tryOff {
		v.errf(jneAt, "jne must retry the transaction (target %#x, want %#x)",
			jneAt+jne.Size()+int(jne.Imm), tryOff)
	}
	// NOP padding then the branch itself.
	off := okAt
	for off < ib.Offset {
		if i, ok := v.instrAt(off); ok && i.Op == visa.NOP {
			off += i.Size()
			continue
		}
		v.errf(off, "unexpected instruction between check and branch")
		return
	}
	br, ok := v.instrAt(ib.Offset)
	if !ok {
		v.errf(ib.Offset, "branch is not at an instruction boundary")
		return
	}
	switch ib.Kind {
	case module.IBRet, module.IBTailJmp, module.IBPLT:
		if br.Op != visa.JMPR || br.R1 != visa.R11 {
			v.errf(ib.Offset, "%s: expected jmpr r11, found %q", ib.Kind, br.String())
		}
	case module.IBCall:
		if br.Op != visa.CALLR || br.R1 != visa.R11 {
			v.errf(ib.Offset, "icall: expected callr r11, found %q", br.String())
		}
	case module.IBLongjmp:
		if br.Op != visa.JRESTORE || br.R3 != visa.R11 {
			v.errf(ib.Offset, "longjmp: expected jrestore *, *, r11, found %q", br.String())
		}
	}
}

// checkStores requires every memory write to be sandboxed: through the
// stack or frame register, or masked by an immediately preceding
// "andi base, StoreMask" with a bounded displacement. Profile32
// modules are exempt — their sandbox is memory segmentation (paper
// §5.1), enforced by the runtime's page protections rather than by
// instrumentation.
func (v *verifier) checkStores() {
	if v.obj.Profile == visa.Profile32 {
		return
	}
	for i, d := range v.code {
		off, ins := d.off, d.ins
		if !ins.IsStore() {
			continue
		}
		base := ins.R2
		if base == visa.SP || base == visa.FP {
			continue
		}
		if ins.Imm > visa.MaxStoreDisp || ins.Imm < -visa.MaxStoreDisp {
			v.errf(off, "store displacement %d exceeds the sandbox guard", ins.Imm)
			continue
		}
		if i == 0 || d.afterGap {
			v.errf(off, "unsandboxed store %q", ins.String())
			continue
		}
		prev := v.code[i-1].ins
		if prev.Op != visa.ANDI || prev.R1 != base || prev.Imm != visa.StoreMask {
			v.errf(off, "store %q not preceded by its sandbox mask", ins.String())
		}
	}
}

// checkDirectBranches validates that relative branches land on
// instruction boundaries (linker-patched sites are exempt at module
// granularity).
func (v *verifier) checkDirectBranches() {
	for _, d := range v.code {
		off, ins := d.off, d.ins
		switch ins.Op {
		case visa.JMP, visa.JE, visa.JNE, visa.JL, visa.JG, visa.JLE,
			visa.JGE, visa.JB, visa.JA, visa.JBE, visa.JAE, visa.CALL:
			if v.relocSites[off+1] {
				continue // target patched at link time
			}
			target := off + ins.Size() + int(ins.Imm)
			if v.at(target) < 0 {
				v.errf(off, "direct branch %q targets a non-boundary %#x", ins.String(), target)
			}
		}
	}
}

// checkAlignment enforces 4-byte alignment of every indirect-branch
// target (paper §5.1).
func (v *verifier) checkAlignment() {
	for _, f := range v.obj.Aux.Funcs {
		if f.AddrTaken && f.Offset%4 != 0 {
			v.errf(f.Offset, "address-taken function %q is not 4-byte aligned", f.Name)
		}
	}
	for _, rs := range v.obj.Aux.RetSites {
		if rs.Offset%4 != 0 {
			v.errf(rs.Offset, "return site is not 4-byte aligned")
		}
	}
	for _, sc := range v.obj.Aux.SetjmpConts {
		if sc%4 != 0 {
			v.errf(sc, "setjmp continuation is not 4-byte aligned")
		}
	}
}

// checkSwitches statically validates jump-table indirect jumps: every
// table entry must resolve to an instruction boundary inside the
// enclosing function, consistent with the declared targets (paper §6,
// following Zeng et al.).
func (v *verifier) checkSwitches() {
	for _, ib := range v.obj.Aux.IBs {
		if ib.Kind != module.IBSwitch {
			continue
		}
		if ib.TableLen == 0 || ib.TableOff+ib.TableLen > len(v.obj.Code) {
			v.errf(ib.Offset, "switch with missing or out-of-range jump table")
			continue
		}
		fn := v.obj.FuncAt(ib.Offset)
		if fn == nil {
			v.errf(ib.Offset, "switch outside any function")
			continue
		}
		n := ib.TableLen / 8
		declared := map[int]bool{}
		for _, t := range ib.Targets {
			declared[t] = true
		}
		for i := 0; i < n; i++ {
			entry := int(binary.LittleEndian.Uint64(v.obj.Code[ib.TableOff+8*i:]))
			target := fn.Offset + entry
			if v.at(target) < 0 {
				v.errf(ib.Offset, "jump-table entry %d targets non-boundary %#x", i, target)
				continue
			}
			if target < fn.Offset || target >= fn.Offset+fn.Size {
				v.errf(ib.Offset, "jump-table entry %d escapes the function", i)
			}
			if len(declared) > 0 && !declared[target] {
				v.errf(ib.Offset, "jump-table entry %d (%#x) not among declared targets", i, target)
			}
		}
	}
}
