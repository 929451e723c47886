package main

import (
	"errors"
	"strings"
	"testing"

	"mcfi/internal/vm"
)

// cfiFault returns the CFI fault a run ended in, or nil.
func cfiFault(err error) *vm.Fault {
	var f *vm.Fault
	if errors.As(err, &f) && f.Kind == vm.FaultCFI {
		return f
	}
	return nil
}

// targetOf is the code offset of fn in the instrumented build of src:
// the branch target a halted check reports.
func targetOf(t *testing.T, name, src, fn string) int64 {
	t.Helper()
	img, err := build(name, src, true)
	if err != nil {
		t.Fatal(err)
	}
	addr := funcAddr(img, fn)
	if addr < 0 {
		t.Fatalf("%s has no function %s", name, fn)
	}
	return int64(addr)
}

// TestSmashBaselineHijacked: without CFI the corrupted return lands in
// evil(), and nothing reports a CFI violation.
func TestSmashBaselineHijacked(t *testing.T) {
	_, out, err := run("smash", smashSrc, false)
	if !strings.Contains(out, "control flow hijacked") {
		t.Errorf("baseline smash output %q, want the hijack", out)
	}
	if f := cfiFault(err); f != nil {
		t.Errorf("baseline smash ended in a CFI fault: %v", f)
	}
}

// TestSmashMCFIBlocked: MCFI's return check halts the transfer to
// evil() before it runs.
func TestSmashMCFIBlocked(t *testing.T) {
	_, out, err := run("smash", smashSrc, true)
	f := cfiFault(err)
	if f == nil {
		t.Fatalf("MCFI smash ended in %v, want a CFI fault", err)
	}
	if f.Check != vm.CheckIndirect {
		t.Errorf("check = %v, want %v", f.Check, vm.CheckIndirect)
	}
	if want := targetOf(t, "smash", smashSrc, "evil"); f.Target != want {
		t.Errorf("target = %#x, want evil at %#x", f.Target, want)
	}
	if strings.Contains(out, "hijacked") {
		t.Errorf("evil() ran under MCFI: %q", out)
	}
}

// TestGnuPGBaselineReachesExecve: without CFI the corrupted function
// pointer calls execve_like, and the program exits normally.
func TestGnuPGBaselineReachesExecve(t *testing.T) {
	code, out, err := run("gnupg", gnupgSrc, false)
	if err != nil || code != 0 {
		t.Fatalf("baseline gnupg = exit %d, %v; want exit 0", code, err)
	}
	if !strings.Contains(out, "execve reached") {
		t.Errorf("baseline gnupg output %q, want execve reached", out)
	}
}

// TestGnuPGMCFIBlocked: MCFI's indirect-call check refuses the call to
// execve_like, whose type differs from the pointer's.
func TestGnuPGMCFIBlocked(t *testing.T) {
	_, out, err := run("gnupg", gnupgSrc, true)
	f := cfiFault(err)
	if f == nil {
		t.Fatalf("MCFI gnupg ended in %v, want a CFI fault", err)
	}
	if f.Check != vm.CheckIndirect {
		t.Errorf("check = %v, want %v", f.Check, vm.CheckIndirect)
	}
	if want := targetOf(t, "gnupg", gnupgSrc, "execve_like"); f.Target != want {
		t.Errorf("target = %#x, want execve_like at %#x", f.Target, want)
	}
	if strings.Contains(out, "execve reached") {
		t.Errorf("execve_like ran under MCFI: %q", out)
	}
}

// TestPolicyComparison: coarse-grained policies allow scenario 2's
// hijacked call; NaCl's alignment rule and MCFI's type matching block
// it.
func TestPolicyComparison(t *testing.T) {
	got, err := comparePolicies()
	if err != nil {
		t.Fatal(err)
	}
	want := []policyVerdict{
		{"none", true},
		{"chunk-16", true},
		{"NaCl-32", false},
		{"binCFI", true},
		{"classic CFI", true},
		{"MCFI", false},
	}
	if len(got) != len(want) {
		t.Fatalf("policies = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("policy %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
