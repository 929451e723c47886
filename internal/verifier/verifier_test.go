package verifier_test

import (
	"strings"
	"testing"

	"mcfi/internal/module"
	"mcfi/internal/toolchain"
	"mcfi/internal/verifier"
	"mcfi/internal/visa"
)

const richSrc = `
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int (*ops[2])(int, int) = {add, sub};

jmp_buf env;

int classify(int x) {
	switch (x) {
	case 0: return 1;
	case 1: return 2;
	case 2: return 3;
	case 3: return 4;
	case 4: return 5;
	default: return 0;
	}
}

int run(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = ops[i & 1](acc, classify(i & 7));
	}
	return acc;
}

int main(void) {
	if (setjmp(env) == 0) {
		int r = run(50);
		printf("%d\n", r);
		longjmp(env, r + 1);
	}
	return 0;
}`

func compileRich(t *testing.T, instrument bool) *module.Object {
	t.Helper()
	obj, err := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrument(instrument),
	).Compile(toolchain.Source{Name: "rich", Text: richSrc})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestVerifyAcceptsCompilerOutput(t *testing.T) {
	obj := compileRich(t, true)
	if err := verifier.Verify(obj); err != nil {
		t.Fatalf("compiler output must verify:\n%v", err)
	}
}

func TestVerifyAcceptsLibc(t *testing.T) {
	lc, err := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	).Libc()
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.Verify(lc); err != nil {
		t.Fatalf("libc must verify:\n%v", err)
	}
}

func TestVerifyRejectsBaseline(t *testing.T) {
	obj := compileRich(t, false)
	if err := verifier.Verify(obj); err == nil {
		t.Fatal("baseline module must be rejected")
	}
}

// mutate returns a copy of obj with one byte patched.
func mutate(obj *module.Object, off int, b byte) *module.Object {
	cp := *obj
	cp.Code = append([]byte(nil), obj.Code...)
	cp.Code[off] = b
	return &cp
}

func TestVerifyDetectsRawRet(t *testing.T) {
	obj := compileRich(t, true)
	// Replace an instrumented branch (a jmpr) with ret + nop.
	var site int
	for _, ib := range obj.Aux.IBs {
		if ib.Kind == module.IBRet {
			site = ib.Offset
			break
		}
	}
	bad := mutate(obj, site, byte(visa.RET))
	bad = mutate(bad, site+1, byte(visa.NOP))
	err := verifier.Verify(bad)
	if err == nil || !strings.Contains(err.Error(), "ret") {
		t.Fatalf("want raw-ret finding, got %v", err)
	}
}

func TestVerifyDetectsMissingMask(t *testing.T) {
	obj := compileRich(t, true)
	// Find an ANDI r, StoreMask and neuter it into NOPs.
	found := false
	off := 0
	skips := map[int]int{}
	for _, ib := range obj.Aux.IBs {
		if ib.TableLen > 0 {
			skips[ib.TableOff] = ib.TableLen
		}
	}
	for off < len(obj.Code) {
		if n, isTable := skips[off]; isTable {
			off += n
			continue
		}
		ins, n, err := visa.Decode(obj.Code, off)
		if err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		if ins.Op == visa.ANDI && ins.Imm == visa.StoreMask {
			bad := obj
			for b := 0; b < n; b++ {
				bad = mutate(bad, off+b, byte(visa.NOP))
			}
			if err := verifier.Verify(bad); err == nil ||
				!strings.Contains(err.Error(), "mask") {
				t.Fatalf("want missing-mask finding, got %v", err)
			}
			found = true
			break
		}
		off += n
	}
	if !found {
		t.Fatal("no store mask found to remove — instrumentation missing?")
	}
}

func TestVerifyDetectsTamperedCheck(t *testing.T) {
	obj := compileRich(t, true)
	// Corrupt a check transaction: overwrite the CMP after the TLOAD.
	var tloadi int
	for _, ib := range obj.Aux.IBs {
		if ib.TLoadIOffset >= 0 {
			tloadi = ib.TLoadIOffset
			break
		}
	}
	// tloadi(6) + tload(3) = offset of cmp; replace with mov r10, r9
	cmpOff := tloadi + 6 + 3
	bad := mutate(obj, cmpOff, byte(visa.MOV))
	if err := verifier.Verify(bad); err == nil {
		t.Fatal("tampered check transaction must be rejected")
	}
}

func TestVerifyDetectsMisalignedTarget(t *testing.T) {
	obj := compileRich(t, true)
	cp := *obj
	cp.Aux.RetSites = append([]module.RetSite(nil), obj.Aux.RetSites...)
	cp.Aux.RetSites[0].Offset++ // force misalignment claim
	err := verifier.Verify(&cp)
	if err == nil || !strings.Contains(err.Error(), "aligned") {
		t.Fatalf("want alignment finding, got %v", err)
	}
}

func TestVerifyDetectsCorruptJumpTable(t *testing.T) {
	obj := compileRich(t, true)
	var tableOff int
	for _, ib := range obj.Aux.IBs {
		if ib.Kind == module.IBSwitch && ib.TableLen > 0 {
			tableOff = ib.TableOff
			break
		}
	}
	if tableOff == 0 {
		t.Skip("no jump table in this build")
	}
	// Point the first entry somewhere absurd.
	bad := mutate(obj, tableOff, 0xFF)
	bad = mutate(bad, tableOff+1, 0xFF)
	if err := verifier.Verify(bad); err == nil {
		t.Fatal("corrupt jump table must be rejected")
	}
}

func TestVerifyDetectsUndeclaredIndirectBranch(t *testing.T) {
	obj := compileRich(t, true)
	// Drop one IB record so its branch becomes undeclared.
	cp := *obj
	cp.Aux.IBs = cp.Aux.IBs[1:]
	err := verifier.Verify(&cp)
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("want undeclared-branch finding, got %v", err)
	}
}

func TestVerifyAcceptsBothProfiles(t *testing.T) {
	for _, p := range []visa.Profile{visa.Profile32, visa.Profile64} {
		obj, err := toolchain.New(
			toolchain.WithProfile(p),
			toolchain.WithInstrumentation(),
		).Compile(toolchain.Source{Name: "rich", Text: richSrc})
		if err != nil {
			t.Fatal(err)
		}
		if err := verifier.Verify(obj); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// TestVerifyFindingsAreDeterministic strips every check-site record
// and every store mask from libc, so each of its instrumented branches
// and masked stores becomes a finding, more than the verifier reports.
// The capped report must name the same findings, in the same order, on
// every run.
func TestVerifyFindingsAreDeterministic(t *testing.T) {
	lc, err := toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrumentation(),
	).Libc()
	if err != nil {
		t.Fatal(err)
	}
	cp := *lc
	cp.Code = append([]byte(nil), lc.Code...)
	cp.Aux.IBs = nil
	skips := map[int]int{}
	for _, ib := range lc.Aux.IBs {
		if ib.Kind == module.IBSwitch { // keeps the jump tables skipped
			cp.Aux.IBs = append(cp.Aux.IBs, ib)
			skips[ib.TableOff] = ib.TableLen
		}
	}
	for off := 0; off < len(cp.Code); {
		if n, isTable := skips[off]; isTable && n > 0 {
			off += n
			continue
		}
		ins, n, err := visa.Decode(cp.Code, off)
		if err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		if ins.Op == visa.ANDI && ins.Imm == visa.StoreMask {
			for b := 0; b < n; b++ {
				cp.Code[off+b] = byte(visa.NOP)
			}
		}
		off += n
	}
	first := verifier.Verify(&cp)
	if first == nil {
		t.Fatal("stripped libc must be rejected")
	}
	if n := strings.Count(first.Error(), "\n") + 1; n != 50 {
		t.Fatalf("%d findings, want the cap of 50 (the module must exceed it)", n)
	}
	for run := 0; run < 20; run++ {
		if err := verifier.Verify(&cp); err == nil || err.Error() != first.Error() {
			t.Fatalf("run %d reports different findings:\n%v\nfirst run:\n%v", run, err, first)
		}
	}
}
