package vm

import (
	"errors"
	"testing"
	"time"

	"mcfi/internal/visa"
)

// TestCancelInterruptsSpin verifies the serving-timeout primitive: a
// guest spinning in an infinite loop is stopped by Process.Cancel from
// another goroutine, Run returns ErrCancelled (not a Fault), and the
// cancel channel is closed.
func TestCancelInterruptsSpin(t *testing.T) {
	p, th := buildProc(t, []visa.Instr{{Op: visa.JMP, Imm: -5}})
	done := make(chan error, 1)
	go func() { done <- th.Run(0) }()
	time.Sleep(10 * time.Millisecond)
	p.Cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("Run = %v, want ErrCancelled", err)
		}
		var f *Fault
		if errors.As(err, &f) {
			t.Fatalf("cancellation must not be a Fault, got %v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not interrupt the spinning guest")
	}
	select {
	case <-p.CancelChan():
	default:
		t.Fatal("CancelChan not closed after Cancel")
	}
	// Cancel is idempotent.
	p.Cancel()
	// Instret flushed on the way out.
	if p.Instret() != th.Instret {
		t.Errorf("process instret %d != thread instret %d after cancelled Run",
			p.Instret(), th.Instret)
	}
}

// TestCancelBeatsBudgetSemantics: a budget error wraps ErrBudget and is
// distinguishable from both cancellation and faults.
func TestBudgetErrorIsTyped(t *testing.T) {
	_, th := buildProc(t, []visa.Instr{{Op: visa.JMP, Imm: -5}})
	err := th.Run(500)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Run = %v, want ErrBudget", err)
	}
	if errors.Is(err, ErrCancelled) {
		t.Fatal("budget exhaustion must not match ErrCancelled")
	}
}

// TestCheckCountersFlushToProcess: the process-wide counters reflect
// per-thread fused-check activity after Run returns, and CFI halts are
// counted on every engine.
func TestCheckCountersFlushToProcess(t *testing.T) {
	// A plain HLT is a halted check under any engine.
	p, th := buildProc(t, []visa.Instr{{Op: visa.HLT}})
	err := th.Run(0)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultCFI {
		t.Fatalf("HLT: got %v, want CFI fault", err)
	}
	st := p.CheckStatsSnapshot()
	if st.Halts != 1 {
		t.Errorf("Halts = %d, want 1", st.Halts)
	}
	if st.Execs != 0 || st.VerdictHits != 0 || st.VerdictMisses != 0 {
		t.Errorf("unexpected fused counters without a registered check site: %+v", st)
	}
}
