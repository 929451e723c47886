package vm

import (
	"math"
	"testing"

	"mcfi/internal/tables"
	"mcfi/internal/visa"
)

// buildProc assembles instructions into a minimal runnable process.
func buildProc(t *testing.T, instrs []visa.Instr) (*Process, *Thread) {
	t.Helper()
	var code []byte
	for _, i := range instrs {
		code = visa.Encode(code, i)
	}
	p := NewProcess()
	copy(p.Mem[visa.CodeBase:], code)
	p.Protect(visa.CodeBase, int64(len(code)), visa.ProtRead|visa.ProtExec)
	// A writable scratch area and stack.
	p.Protect(visa.DataBase, 1<<20, visa.ProtRead|visa.ProtWrite)
	th := p.NewThread(visa.CodeBase, visa.DataBase+1<<20)
	return p, th
}

func run(t *testing.T, th *Thread, steps int) error {
	t.Helper()
	for i := 0; i < steps; i++ {
		if err := th.Step(); err != nil {
			return err
		}
	}
	return nil
}

func TestArithmeticOps(t *testing.T) {
	_, th := buildProc(t, []visa.Instr{
		{Op: visa.MOVI, R1: visa.R0, Imm: 100},
		{Op: visa.MOVI, R1: visa.R1, Imm: 7},
		{Op: visa.ADD, R1: visa.R0, R2: visa.R1}, // 107
		{Op: visa.MUL, R1: visa.R0, R2: visa.R1}, // 749
		{Op: visa.MOVI, R1: visa.R2, Imm: 10},
		{Op: visa.MOD, R1: visa.R0, R2: visa.R2}, // 9
		{Op: visa.SHL, R1: visa.R0, R2: visa.R1}, // 9 << 7 = 1152
		{Op: visa.NEG, R1: visa.R0},              // -1152
		{Op: visa.SAR, R1: visa.R0, R2: visa.R2}, // -1152 >> 10 = -2
	})
	if err := run(t, th, 9); err != nil {
		t.Fatal(err)
	}
	if th.Reg[visa.R0] != -2 {
		t.Errorf("R0 = %d, want -2", th.Reg[visa.R0])
	}
}

func TestUnsignedOps(t *testing.T) {
	_, th := buildProc(t, []visa.Instr{
		{Op: visa.MOVI, R1: visa.R0, Imm: -8}, // 0xFFFF...F8
		{Op: visa.MOVI, R1: visa.R1, Imm: 16},
		{Op: visa.UDIV, R1: visa.R0, R2: visa.R1},
	})
	if err := run(t, th, 3); err != nil {
		t.Fatal(err)
	}
	want := int64(uint64(0xFFFFFFFFFFFFFFF8) / 16)
	if th.Reg[visa.R0] != want {
		t.Errorf("udiv = %d, want %d", th.Reg[visa.R0], want)
	}
}

func TestDivByZeroFaults(t *testing.T) {
	_, th := buildProc(t, []visa.Instr{
		{Op: visa.MOVI, R1: visa.R0, Imm: 1},
		{Op: visa.MOVI, R1: visa.R1, Imm: 0},
		{Op: visa.DIV, R1: visa.R0, R2: visa.R1},
	})
	err := run(t, th, 3)
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultArith {
		t.Errorf("want arithmetic fault, got %v", err)
	}
}

func TestLoadStoreWidths(t *testing.T) {
	base := int64(visa.DataBase)
	_, th := buildProc(t, []visa.Instr{
		{Op: visa.MOVI, R1: visa.R1, Imm: base},
		{Op: visa.MOVI, R1: visa.R0, Imm: -2}, // 0xFFFE...
		{Op: visa.ST16, R1: visa.R0, R2: visa.R1, Imm: 0},
		{Op: visa.LD16, R1: visa.R2, R2: visa.R1, Imm: 0},
		{Op: visa.LD16U, R1: visa.R3, R2: visa.R1, Imm: 0},
		{Op: visa.LD8, R1: visa.R4, R2: visa.R1, Imm: 0},
		{Op: visa.LD8U, R1: visa.R5, R2: visa.R1, Imm: 0},
	})
	if err := run(t, th, 7); err != nil {
		t.Fatal(err)
	}
	if th.Reg[visa.R2] != -2 {
		t.Errorf("ld16 = %d, want -2 (sign-extended)", th.Reg[visa.R2])
	}
	if th.Reg[visa.R3] != 0xFFFE {
		t.Errorf("ld16u = %#x, want 0xFFFE", th.Reg[visa.R3])
	}
	if th.Reg[visa.R4] != -2 || th.Reg[visa.R5] != 0xFE {
		t.Errorf("ld8/ld8u = %d/%#x", th.Reg[visa.R4], th.Reg[visa.R5])
	}
}

func TestWriteToCodeFaults(t *testing.T) {
	_, th := buildProc(t, []visa.Instr{
		{Op: visa.MOVI, R1: visa.R1, Imm: visa.CodeBase},
		{Op: visa.MOVI, R1: visa.R0, Imm: 0x28},
		{Op: visa.ST8, R1: visa.R0, R2: visa.R1, Imm: 0},
	})
	err := run(t, th, 3)
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultMem {
		t.Errorf("writing code should be a memory fault, got %v", err)
	}
}

func TestExecuteDataFaults(t *testing.T) {
	_, th := buildProc(t, []visa.Instr{
		{Op: visa.MOVI, R1: visa.R1, Imm: visa.DataBase},
		{Op: visa.JMPR, R1: visa.R1},
	})
	if err := run(t, th, 2); err != nil {
		t.Fatal(err)
	}
	err := th.Step() // fetch from data region
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultExec {
		t.Errorf("executing data should be an exec fault, got %v", err)
	}
}

func TestHltIsCFIFault(t *testing.T) {
	_, th := buildProc(t, []visa.Instr{{Op: visa.HLT}})
	err := th.Step()
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultCFI {
		t.Errorf("hlt should be a CFI fault, got %v", err)
	}
}

func TestCallRetRoundTrip(t *testing.T) {
	// call +0 (next instr); callee: movi r0, 5; ret
	_, th := buildProc(t, []visa.Instr{
		{Op: visa.CALL, Imm: 5},              // skip the jmp
		{Op: visa.JMP, Imm: 11},              // return lands here, jump to end
		{Op: visa.MOVI, R1: visa.R0, Imm: 5}, // callee
		{Op: visa.RET},
		{Op: visa.NOP}, // end
	})
	if err := run(t, th, 5); err != nil {
		t.Fatal(err)
	}
	if th.Reg[visa.R0] != 5 {
		t.Errorf("R0 = %d, want 5", th.Reg[visa.R0])
	}
	if th.PC != visa.CodeBase+5+5+10+1+1 {
		t.Errorf("PC = %#x", th.PC)
	}
}

func TestConditionalBranches(t *testing.T) {
	cases := []struct {
		a, b  int64
		op    visa.Op
		taken bool
	}{
		{1, 1, visa.JE, true}, {1, 2, visa.JE, false},
		{1, 2, visa.JNE, true},
		{-1, 1, visa.JL, true}, {-1, 1, visa.JB, false}, // signed vs unsigned
		{2, 1, visa.JA, true}, {1, 2, visa.JBE, true},
		{5, 5, visa.JGE, true}, {4, 5, visa.JG, false},
	}
	for _, c := range cases {
		_, th := buildProc(t, []visa.Instr{
			{Op: visa.MOVI, R1: visa.R0, Imm: c.a},
			{Op: visa.MOVI, R1: visa.R1, Imm: c.b},
			{Op: visa.CMP, R1: visa.R0, R2: visa.R1},
			{Op: c.op, Imm: 10},
			{Op: visa.MOVI, R1: visa.R2, Imm: 111}, // skipped when taken
		})
		if err := run(t, th, 4); err != nil {
			t.Fatal(err)
		}
		wasTaken := th.PC != visa.CodeBase+10+10+3+5
		if wasTaken != c.taken {
			t.Errorf("%s with (%d, %d): taken=%v, want %v",
				c.op.Name(), c.a, c.b, wasTaken, c.taken)
		}
	}
}

func TestFloatOps(t *testing.T) {
	bits := func(f float64) int64 { return int64(math.Float64bits(f)) }
	_, th := buildProc(t, []visa.Instr{
		{Op: visa.MOVI, R1: visa.R0, Imm: bits(2.5)},
		{Op: visa.MOVI, R1: visa.R1, Imm: bits(4.0)},
		{Op: visa.FMUL, R1: visa.R0, R2: visa.R1}, // 10.0
		{Op: visa.CVFI, R1: visa.R0},              // 10
		{Op: visa.CVIF, R1: visa.R0},              // 10.0
		{Op: visa.FCMP, R1: visa.R0, R2: visa.R1},
		{Op: visa.SET, R1: visa.CcG, R2: visa.R2}, // 10.0 > 4.0
	})
	if err := run(t, th, 7); err != nil {
		t.Fatal(err)
	}
	if th.Reg[visa.R2] != 1 {
		t.Error("float comparison failed")
	}
}

func TestTloadAgainstTables(t *testing.T) {
	p, th := buildProc(t, []visa.Instr{
		{Op: visa.MOVI, R1: visa.R11, Imm: 8},
		{Op: visa.TLOAD, R1: visa.R9, R2: visa.R11},
		{Op: visa.TLOADI, R1: visa.R10, Imm: 1 << 16}, // BaryBase of tables below
	})
	tb := tables.New(make([]uint32, (1<<16)/4+4), 1<<16, nil)
	tb.Update(func(addr int) int {
		if addr == 8 {
			return 3
		}
		return -1
	}, func(i int) int {
		if i == 0 {
			return 3
		}
		return -1
	}, tables.UpdateOpts{})
	p.Tables = tb
	if err := run(t, th, 3); err != nil {
		t.Fatal(err)
	}
	if th.Reg[visa.R9] != th.Reg[visa.R10] || th.Reg[visa.R9] == 0 {
		t.Errorf("tload=%#x tloadi=%#x", th.Reg[visa.R9], th.Reg[visa.R10])
	}
}

func TestTloadWithoutTablesFaults(t *testing.T) {
	_, th := buildProc(t, []visa.Instr{{Op: visa.TLOAD, R1: visa.R9, R2: visa.R11}})
	if err := th.Step(); err == nil {
		t.Error("tload without tables should fault")
	}
}

func TestSetjmpRestore(t *testing.T) {
	env := int64(visa.DataBase + 64)
	_, th := buildProc(t, []visa.Instr{
		{Op: visa.MOVI, R1: visa.R1, Imm: env},
		{Op: visa.SETJ, R1: visa.R1},          // writes env, R0=0
		{Op: visa.MOVI, R1: visa.R5, Imm: 77}, // continuation
		{Op: visa.LD64, R1: visa.R3, R2: visa.R1, Imm: 0},
		{Op: visa.LD64, R1: visa.R4, R2: visa.R1, Imm: 8},
		{Op: visa.LD64, R1: visa.R11, R2: visa.R1, Imm: 16},
		{Op: visa.JRESTORE, R1: visa.R3, R2: visa.R4, R3: visa.R11},
	})
	// First pass: through setjmp, loads, jrestore -> back to continuation.
	if err := run(t, th, 7); err != nil {
		t.Fatal(err)
	}
	// After jrestore, PC is at the continuation (movi r5).
	wantPC := int64(visa.CodeBase + 10 + 2)
	if th.PC != wantPC {
		t.Errorf("PC after jrestore = %#x, want %#x", th.PC, wantPC)
	}
	if err := th.Step(); err != nil {
		t.Fatal(err)
	}
	if th.Reg[visa.R5] != 77 {
		t.Error("continuation did not execute")
	}
}

func TestExitStopsRun(t *testing.T) {
	p, th := buildProc(t, []visa.Instr{
		{Op: visa.JMP, Imm: -5}, // infinite loop
	})
	go func() {
		p.Exit(42)
	}()
	err := th.Run(0)
	if err != ErrExited {
		t.Errorf("want ErrExited, got %v", err)
	}
	_, code := p.Exited()
	if code != 42 {
		t.Errorf("exit code = %d", code)
	}
}

func TestInstructionBudget(t *testing.T) {
	_, th := buildProc(t, []visa.Instr{{Op: visa.JMP, Imm: -5}})
	if err := th.Run(1000); err == nil || err == ErrExited {
		t.Errorf("budget exhaustion should error, got %v", err)
	}
	if th.Instret < 1000 {
		t.Errorf("retired %d, want >= 1000", th.Instret)
	}
}

func TestWXInvariantChecker(t *testing.T) {
	p := NewProcess()
	p.Protect(0x1000, 0x1000, visa.ProtRead|visa.ProtExec)
	if err := p.CheckWX(); err != nil {
		t.Errorf("RX only: %v", err)
	}
	p.Protect(0x2000, 0x1000, visa.ProtRead|visa.ProtWrite|visa.ProtExec)
	if err := p.CheckWX(); err == nil {
		t.Error("W+X page must be detected")
	}
}
