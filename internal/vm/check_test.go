package vm

import (
	"testing"

	"mcfi/internal/rewrite"
	"mcfi/internal/tables"
	"mcfi/internal/visa"
)

// TestGuestCheckAgreesWithHostCheck cross-validates the two
// implementations of the check transaction: the VISA instruction
// sequence emitted by internal/rewrite (executed here by the VM) and
// the host-side tables.Check used by the runtime and the STM
// benchmarks. For a grid of (branch, target) pairs over a shared table
// configuration, both must reach the same verdict.
func TestGuestCheckAgreesWithHostCheck(t *testing.T) {
	const codeLimit = 1 << 16
	tb := tables.New(make([]uint32, codeLimit/4+64), codeLimit, nil)
	// Classes: addresses 0x1000+64k belong to class (k%8)+1; branches
	// 0..7 carry classes 1..8.
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

	// The guest: a tail-jump check sequence on R11, then (at 'land') an
	// infinite loop the passing jump can only reach via the table.
	run := func(branch, target int) (pass bool) {
		a := visa.NewAsm()
		site := rewrite.EmitTailJump(a, true)
		if err := a.Finish(); err != nil {
			t.Fatal(err)
		}
		// Patch the Bary index into the TLOADI immediate.
		imm := uint32(tb.BaryBase() + 4*branch)
		for i := 0; i < 4; i++ {
			a.Code[site.TLoadIOffset+2+i] = byte(imm >> (8 * i))
		}

		p := NewProcess()
		p.Tables = tb
		copy(p.Mem[visa.CodeBase:], a.Code)
		// Make the entire low code region executable so a passing jump
		// can land anywhere the table allows.
		p.Protect(visa.CodeBase, codeLimit, visa.ProtRead|visa.ProtExec)
		p.Protect(visa.DataBase, 1<<16, visa.ProtRead|visa.ProtWrite)

		th := p.NewThread(visa.CodeBase, visa.DataBase+1<<16)
		th.Reg[visa.R11] = int64(target)
		err := th.Run(4096)
		if f, ok := err.(*Fault); ok && f.Kind == FaultCFI {
			return false // halted by the check
		}
		// Budget exhausted (spinning on NOP-sleds/zeroes) or another
		// fault after the jump: the check itself passed.
		return true
	}

	// Branches 0..7 have loader-assigned valid IDs. (An unconfigured
	// Bary index carries the all-zero invalid ID; against a non-target
	// address — also all-zero — the Fig. 4 fast path compares equal and
	// passes, in the paper exactly as here. That is why branch IDs are
	// a loader guarantee, not something checks re-establish; the
	// defensive host-side Check reports Violation instead, a documented
	// divergence.)
	for branch := 0; branch < 8; branch++ {
		for _, target := range []int{
			0x1000, 0x1040, 0x1080, 0x10C0, // class 1..4 entries
			0x1000 + 64*8,  // class 1 again
			0x1002,         // misaligned
			0x0FF0,         // not a target
			0x9000,         // far, not a target
			0x1000 + 64*63, // last classed address
		} {
			want := tb.Check(branch, target) == tables.Pass
			got := run(branch, target)
			if got != want {
				t.Errorf("branch %d target %#x: guest=%v host=%v",
					branch, target, got, want)
			}
		}
	}
}

// TestGuestCheckRetriesThroughUpdate pins the concurrency story at the
// instruction level: a guest thread spinning on one checked jump keeps
// passing while a host goroutine re-versions the tables continuously.
func TestGuestCheckRetriesThroughUpdate(t *testing.T) {
	const codeLimit = 1 << 14
	tb := tables.New(make([]uint32, codeLimit/4+8), codeLimit, nil)
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

	// Code at 0x1000: movi r11, 0x1000; <check>; jmpr r11 -> loops back
	// through the check forever.
	a := visa.NewAsm()
	a.Emit(visa.Instr{Op: visa.MOVI, R1: visa.R11, Imm: 0x1000})
	rewrite.EmitTailJump(a, true)
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	// The jump target must be the movi itself (offset 0 of this blob at
	// 0x1000), and the Tary entry is at 0x1000 — consistent.
	var tl int
	for _, ib := range []int{0} {
		_ = ib
	}
	// Find the TLOADI and patch index 0.
	off := 0
	for off < len(a.Code) {
		ins, n, err := visa.Decode(a.Code, off)
		if err != nil {
			t.Fatal(err)
		}
		if ins.Op == visa.TLOADI {
			tl = off
		}
		off += n
	}
	imm := uint32(tb.BaryBase())
	for i := 0; i < 4; i++ {
		a.Code[tl+2+i] = byte(imm >> (8 * i))
	}

	p := NewProcess()
	p.Tables = tb
	copy(p.Mem[0x1000:], a.Code)
	p.Protect(0x1000, int64(len(a.Code)), visa.ProtRead|visa.ProtExec)
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
	// The only acceptable exit is budget exhaustion: a CFI fault would
	// mean a check observed an inconsistent table state.
	if f, ok := err.(*Fault); ok {
		t.Fatalf("spinning checked jump faulted under concurrent updates: %v", f)
	}
	if tb.Updates() < 2 {
		t.Logf("only %d updates raced the guest", tb.Updates())
	}
}
