// Peephole metadata: the straight-line instruction shape the block
// compiler (internal/vm EngineBlockJIT) fuses into a single step.
// Like IsMaskStorePair, the predicate lives beside the emitters so
// the fusion matcher can never drift from what the rewriter
// produces — but it is keyed on byte shapes alone, so coincidental
// guest-authored pairs fuse too, harmlessly: the fused step
// reproduces both instructions' architectural effects exactly.
package rewrite

import "mcfi/internal/visa"

// IsCmpJccPair reports whether cmp and j form the fusible compare +
// conditional-branch shape: a pure flag-setting comparison
// immediately followed by the conditional branch consuming its flags.
// Every comparison in the ISA writes the full flag state, so the pair
// is fusible regardless of which registers it names.
func IsCmpJccPair(cmp, j visa.Instr) bool {
	switch cmp.Op {
	case visa.CMP, visa.CMPI, visa.CMPW, visa.TESTB, visa.FCMP:
	default:
		return false
	}
	switch j.Op {
	case visa.JE, visa.JNE, visa.JL, visa.JG, visa.JLE, visa.JGE,
		visa.JB, visa.JA, visa.JBE, visa.JAE:
		return true
	}
	return false
}
