package cfg

import (
	"testing"

	"mcfi/internal/ctypes"
	"mcfi/internal/module"
	"mcfi/internal/visa"
)

func sig(result *ctypes.Type, params []*ctypes.Type, variadic bool) string {
	return ctypes.Signature(ctypes.FuncOf(result, params, variadic))
}

var (
	sigII  = sig(ctypes.IntType, []*ctypes.Type{ctypes.IntType}, false)  // int(int)
	sigVV  = sig(ctypes.VoidType, nil, false)                            // void(void)
	sigIIv = sig(ctypes.IntType, []*ctypes.Type{ctypes.IntType}, true)   // int(int,...)
	sigLI  = sig(ctypes.LongType, []*ctypes.Type{ctypes.IntType}, false) // long(int)
	sigIC  = sig(ctypes.IntType, []*ctypes.Type{ctypes.CharType}, false) // int(char)
	sigIIC = sig(ctypes.IntType, []*ctypes.Type{ctypes.IntType, ctypes.CharType}, false)
)

func TestParseSig(t *testing.T) {
	ps, ok := parseSig(sigII, nil)
	if !ok || len(ps.params) != 1 || ps.variadic || ps.result != "i" {
		t.Errorf("parseSig(%q) = %+v, %v", sigII, ps, ok)
	}
	ps, ok = parseSig(sigIIv, nil)
	if !ok || !ps.variadic || len(ps.params) != 1 {
		t.Errorf("parseSig(%q) = %+v, %v", sigIIv, ps, ok)
	}
	// Nested function-pointer parameter.
	fp := ctypes.PointerTo(ctypes.FuncOf(ctypes.IntType, []*ctypes.Type{ctypes.IntType}, false))
	nested := sig(ctypes.IntType, []*ctypes.Type{fp, ctypes.IntType}, false)
	ps, ok = parseSig(nested, nil)
	if !ok || len(ps.params) != 2 {
		t.Errorf("parseSig(%q) = %+v, %v", nested, ps, ok)
	}
	// Record parameter with fields (braces containing semicolons).
	rec := &ctypes.Type{Kind: ctypes.Struct, Fields: []ctypes.Field{
		{Name: "a", Type: ctypes.IntType}, {Name: "b", Type: fp}}}
	withRec := sig(ctypes.VoidType, []*ctypes.Type{ctypes.PointerTo(rec), ctypes.LongType}, false)
	ps, ok = parseSig(withRec, nil)
	if !ok || len(ps.params) != 2 {
		t.Errorf("parseSig(%q) = %+v, %v", withRec, ps, ok)
	}
	if _, ok := parseSig("i", nil); ok {
		t.Error("non-function signature should not parse")
	}
	if _, ok := parseSig("f(i,", nil); ok {
		t.Error("unterminated signature should not parse")
	}
}

func TestSigCallMatch(t *testing.T) {
	cases := []struct {
		fp, fn string
		want   bool
	}{
		{sigII, sigII, true},
		{sigII, sigLI, false},
		{sigII, sigIC, false},
		{sigIIv, sigII, true},  // int(int,...) matches int(int)
		{sigIIv, sigIIC, true}, // and int(int,char)
		{sigIIv, sigIC, false}, // but not int(char)
		{sigIIv, sigLI, false}, // return type must match
		{sigVV, sigII, false},
		{"", sigII, false},
		{sigII, "", false},
	}
	for _, c := range cases {
		if got := SigCallMatch(c.fp, c.fn); got != c.want {
			t.Errorf("SigCallMatch(%q, %q) = %v, want %v", c.fp, c.fn, got, c.want)
		}
	}
}

// baseInput builds a small program:
//
//	main calls helper directly (ret site 100) and fp() indirectly
//	(ret site 200, type int(int)); cb1 and cb2 are address-taken
//	int(int); cb3 is address-taken void(void); helper is not
//	address-taken.
func baseInput(profile visa.Profile) Input {
	return Input{
		Profile: profile,
		Funcs: []module.FuncInfo{
			{Name: "main", Offset: 0x1000, Size: 0x100, Sig: sigVV},
			{Name: "helper", Offset: 0x1100, Size: 0x40, Sig: sigII},
			{Name: "cb1", Offset: 0x1200, Size: 0x40, Sig: sigII, AddrTaken: true},
			{Name: "cb2", Offset: 0x1300, Size: 0x40, Sig: sigII, AddrTaken: true},
			{Name: "cb3", Offset: 0x1400, Size: 0x40, Sig: sigVV, AddrTaken: true},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x10F0, Kind: module.IBRet, Func: "main"},
			{Offset: 0x1130, Kind: module.IBRet, Func: "helper"},
			{Offset: 0x1230, Kind: module.IBRet, Func: "cb1"},
			{Offset: 0x1330, Kind: module.IBRet, Func: "cb2"},
			{Offset: 0x1430, Kind: module.IBRet, Func: "cb3"},
			{Offset: 0x1050, Kind: module.IBCall, Func: "main", FpSig: sigII},
		},
		RetSites: []module.RetSite{
			{Offset: 0x1004, Callee: "helper"},
			{Offset: 0x1008, FpSig: sigII},
		},
	}
}

func TestGenerateTypeMatching(t *testing.T) {
	g := Generate(baseInput(visa.Profile32))

	icallTargets := g.BranchTargets[0x1050]
	if len(icallTargets) != 2 {
		t.Fatalf("icall targets = %v, want cb1+cb2", icallTargets)
	}
	if icallTargets[0] != 0x1200 || icallTargets[1] != 0x1300 {
		t.Errorf("icall targets = %#v", icallTargets)
	}
	// cb3 (void(void)) must not be a target: no indirect call of that
	// type exists, so its entry address has no Tary entry either.
	if _, ok := g.TaryECN[0x1400]; ok {
		t.Error("cb3 should not be a Tary target")
	}
	// helper's return goes to the direct-call site.
	if ts := g.BranchTargets[0x1130]; len(ts) != 1 || ts[0] != 0x1004 {
		t.Errorf("helper return targets = %v", ts)
	}
	// cb1/cb2 returns both go to the indirect-call ret site; same class.
	if g.BranchECN[0x1230] != g.BranchECN[0x1330] {
		t.Error("cb1 and cb2 returns should share an ECN")
	}
	// main's return has no callers: fresh violating class.
	if _, ok := g.BranchECN[0x10F0]; !ok {
		t.Error("main's return must still get a branch ECN")
	}
	// cb1 and cb2 entries share a class; helper's ret site is distinct.
	if g.TaryECN[0x1200] != g.TaryECN[0x1300] {
		t.Error("cb1 and cb2 entries should share a class")
	}
	if g.TaryECN[0x1004] == g.TaryECN[0x1200] {
		t.Error("direct-call ret site should not share the icall target class")
	}
	if g.Stats.IBs != 6 {
		t.Errorf("IBs = %d, want 6", g.Stats.IBs)
	}
	// Targets: cb1, cb2 entries + 2 ret sites = 4.
	if g.Stats.IBTs != 4 {
		t.Errorf("IBTs = %d, want 4", g.Stats.IBTs)
	}
	// Classes: {cb1,cb2}, {0x1004}, {0x1008} = 3.
	if g.Stats.EQCs != 3 {
		t.Errorf("EQCs = %d, want 3", g.Stats.EQCs)
	}
}

func TestECNsStartAtOneAndDense(t *testing.T) {
	g := Generate(baseInput(visa.Profile32))
	seen := map[int]bool{}
	for _, e := range g.TaryECN {
		if e < 1 {
			t.Fatalf("ECN %d < 1", e)
		}
		seen[e] = true
	}
	for e := 1; e <= g.Classes; e++ {
		if !seen[e] {
			t.Errorf("ECN %d unused (not dense)", e)
		}
	}
}

func TestTailCallChasing(t *testing.T) {
	// f calls g (ret site S); g tail-calls h. On Profile64 a return in
	// h may target S; on Profile32 the aux carries no tail-call info.
	in := Input{
		Profile: visa.Profile64,
		Funcs: []module.FuncInfo{
			{Name: "f", Offset: 0x1000, Size: 0x40, Sig: sigVV},
			{Name: "g", Offset: 0x1100, Size: 0x40, Sig: sigII, TailCalls: []string{"h"}},
			{Name: "h", Offset: 0x1200, Size: 0x40, Sig: sigII},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x1230, Kind: module.IBRet, Func: "h"},
			{Offset: 0x1130, Kind: module.IBRet, Func: "g"},
		},
		RetSites: []module.RetSite{
			{Offset: 0x1008, Callee: "g"},
		},
	}
	g := Generate(in)
	if ts := g.BranchTargets[0x1230]; len(ts) != 1 || ts[0] != 0x1008 {
		t.Errorf("h's return targets = %v, want [0x1008]", ts)
	}
	// Same input on Profile32 still records the aux, but chasing is the
	// 64-bit compiler's behaviour; h has no callers of its own.
	in.Profile = visa.Profile32
	g32 := Generate(in)
	if ts := g32.BranchTargets[0x1230]; len(ts) != 0 {
		t.Errorf("h's return targets on 32-bit = %v, want none", ts)
	}
}

func TestIndirectTailCallChasing(t *testing.T) {
	// g makes an indirect tail call of type int(int); h matches.
	in := Input{
		Profile: visa.Profile64,
		Funcs: []module.FuncInfo{
			{Name: "g", Offset: 0x1100, Size: 0x40, Sig: sigII, TailSigs: []string{sigII}},
			{Name: "h", Offset: 0x1200, Size: 0x40, Sig: sigII, AddrTaken: true},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x1230, Kind: module.IBRet, Func: "h"},
		},
		RetSites: []module.RetSite{
			{Offset: 0x1008, Callee: "g"},
		},
	}
	g := Generate(in)
	if ts := g.BranchTargets[0x1230]; len(ts) != 1 || ts[0] != 0x1008 {
		t.Errorf("h's return targets = %v, want [0x1008]", ts)
	}
}

func TestLongjmpEdges(t *testing.T) {
	in := Input{
		Profile: visa.Profile64,
		Funcs: []module.FuncInfo{
			{Name: "f", Offset: 0x1000, Size: 0x100, Sig: sigVV},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x1080, Kind: module.IBLongjmp, Func: "f"},
		},
		SetjmpConts: []int{0x1010, 0x1044},
	}
	g := Generate(in)
	ts := g.BranchTargets[0x1080]
	if len(ts) != 2 || ts[0] != 0x1010 || ts[1] != 0x1044 {
		t.Errorf("longjmp targets = %v", ts)
	}
	// Both continuations are merged into one class.
	if g.TaryECN[0x1010] != g.TaryECN[0x1044] {
		t.Error("setjmp continuations should share a class")
	}
}

func TestPLTEdges(t *testing.T) {
	in := Input{
		Profile: visa.Profile64,
		Funcs: []module.FuncInfo{
			{Name: "libfn", Offset: 0x2000, Size: 0x40, Sig: sigII},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x1800, Kind: module.IBPLT, Func: "", PLTSym: "libfn"},
			{Offset: 0x1840, Kind: module.IBPLT, Func: "", PLTSym: "missing"},
		},
	}
	g := Generate(in)
	if ts := g.BranchTargets[0x1800]; len(ts) != 1 || ts[0] != 0x2000 {
		t.Errorf("resolved PLT targets = %v", ts)
	}
	if ts := g.BranchTargets[0x1840]; len(ts) != 0 {
		t.Errorf("unresolved PLT targets = %v, want none", ts)
	}
	// The unresolved PLT branch must have an ECN that matches nothing.
	ecn := g.BranchECN[0x1840]
	for _, e := range g.TaryECN {
		if e == ecn {
			t.Error("unresolved PLT ECN collides with a real class")
		}
	}
}

func TestSwitchNotTableChecked(t *testing.T) {
	in := Input{
		Profile: visa.Profile64,
		Funcs: []module.FuncInfo{
			{Name: "f", Offset: 0x1000, Size: 0x100, Sig: sigVV},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x1040, Kind: module.IBSwitch, Func: "f", Targets: []int{0x1050, 0x1060}},
		},
	}
	g := Generate(in)
	if len(g.TaryECN) != 0 {
		t.Errorf("switch targets should not enter Tary: %v", g.TaryECN)
	}
	if _, ok := g.BranchECN[0x1040]; ok {
		t.Error("switch branch should not get a Bary ECN")
	}
	if g.Stats.IBs != 0 {
		t.Errorf("switch should not count as an instrumented IB, got %d", g.Stats.IBs)
	}
}

func TestVariadicCallTargets(t *testing.T) {
	in := Input{
		Profile: visa.Profile64,
		Funcs: []module.FuncInfo{
			{Name: "printf_like", Offset: 0x1000, Size: 0x40, Sig: sigIIC, AddrTaken: true},
			{Name: "intint", Offset: 0x1100, Size: 0x40, Sig: sigII, AddrTaken: true},
			{Name: "wrong", Offset: 0x1200, Size: 0x40, Sig: sigIC, AddrTaken: true},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x1300, Kind: module.IBCall, Func: "main", FpSig: sigIIv},
		},
	}
	g := Generate(in)
	ts := g.BranchTargets[0x1300]
	if len(ts) != 2 {
		t.Fatalf("variadic call targets = %v, want 2", ts)
	}
}

func TestAsmAnnotationAddsTarget(t *testing.T) {
	// memfast is not address-taken in C code, but an asm annotation
	// declares it; the annotated type drives matching.
	in := Input{
		Profile: visa.Profile64,
		Funcs: []module.FuncInfo{
			{Name: "memfast", Offset: 0x1000, Size: 0x40, Sig: sigVV},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x1100, Kind: module.IBCall, Func: "main", FpSig: sigII},
		},
		Annotations: []string{"memfast : " + sigII},
	}
	g := Generate(in)
	if ts := g.BranchTargets[0x1100]; len(ts) != 1 || ts[0] != 0x1000 {
		t.Errorf("annotated targets = %v", ts)
	}
}

func TestGnuPGAttackScenario(t *testing.T) {
	// Paper §8.3: a hijacked function pointer cannot reach execve
	// because the types do not match. Model: fp type void(void);
	// execve-analogue has a different type and is address-taken.
	sigExec := sig(ctypes.IntType, []*ctypes.Type{
		ctypes.PointerTo(ctypes.CharType),
		ctypes.PointerTo(ctypes.PointerTo(ctypes.CharType)),
	}, false)
	in := Input{
		Profile: visa.Profile64,
		Funcs: []module.FuncInfo{
			{Name: "execve", Offset: 0x3000, Size: 0x40, Sig: sigExec, AddrTaken: true},
			{Name: "cb", Offset: 0x1000, Size: 0x40, Sig: sigVV, AddrTaken: true},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x1500, Kind: module.IBCall, Func: "main", FpSig: sigVV},
		},
	}
	g := Generate(in)
	for _, tgt := range g.BranchTargets[0x1500] {
		if tgt == 0x3000 {
			t.Fatal("void(void) fp must not reach execve")
		}
	}
	if g.TaryECN[0x3000] == 0 {
		// execve is address-taken but no indirect call matches it: it
		// should not even be a Tary target.
		if _, ok := g.TaryECN[0x3000]; ok {
			t.Error("execve with no matching callers should have no Tary entry")
		}
	}
}

func TestMergingOverlappingSets(t *testing.T) {
	// Two indirect calls with sets {A,B} and {B,C}: classic CFI merges
	// them into one class {A,B,C} (paper §2 precision loss).
	in := Input{
		Profile: visa.Profile64,
		Funcs: []module.FuncInfo{
			{Name: "A", Offset: 0x1000, Size: 8, Sig: sigII, AddrTaken: true},
			{Name: "B", Offset: 0x1100, Size: 8, Sig: sigII, AddrTaken: true},
			{Name: "C", Offset: 0x1200, Size: 8, Sig: sigLI, AddrTaken: true},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x2000, Kind: module.IBCall, Func: "m", FpSig: sigII},
			{Offset: 0x2100, Kind: module.IBCall, Func: "m", FpSig: sigLI},
		},
	}
	g := Generate(in)
	// Here the sets don't overlap ({A,B} vs {C}), so two classes.
	if g.Classes != 2 {
		t.Errorf("classes = %d, want 2", g.Classes)
	}
	// Now force an overlap through a longjmp-style shared target: both
	// call sigs match B via annotation trickery is overkill; instead
	// simulate two rets sharing a site.
	in2 := Input{
		Profile: visa.Profile64,
		Funcs: []module.FuncInfo{
			{Name: "f", Offset: 0x1000, Size: 8, Sig: sigII},
			{Name: "g", Offset: 0x1100, Size: 8, Sig: sigII},
		},
		IBs: []module.IndirectBranch{
			{Offset: 0x1040, Kind: module.IBRet, Func: "f"},
			{Offset: 0x1140, Kind: module.IBRet, Func: "g"},
		},
		RetSites: []module.RetSite{
			{Offset: 0x2000, Callee: "f"},
			{Offset: 0x2004, Callee: "g"},
			{Offset: 0x2008, Callee: "f"},
		},
	}
	// g and f share no ret sites here, so classes stay separate.
	g2 := Generate(in2)
	if g2.BranchECN[0x1040] == g2.BranchECN[0x1140] {
		t.Error("f and g returns should be in different classes")
	}
	// Add a shared site: an fp call whose type matches both f and g
	// would merge them — model by marking both addr-taken with an
	// indirect ret site.
	in2.Funcs[0].AddrTaken = true
	in2.Funcs[1].AddrTaken = true
	in2.RetSites = append(in2.RetSites, module.RetSite{Offset: 0x200C, FpSig: sigII})
	g3 := Generate(in2)
	if g3.BranchECN[0x1040] != g3.BranchECN[0x1140] {
		t.Error("shared indirect ret site must merge f and g return classes")
	}
}

func TestDeterministicECNs(t *testing.T) {
	a := Generate(baseInput(visa.Profile64))
	for i := 0; i < 5; i++ {
		b := Generate(baseInput(visa.Profile64))
		if a.Classes != b.Classes {
			t.Fatal("class count not deterministic")
		}
		for addr, e := range a.TaryECN {
			if b.TaryECN[addr] != e {
				t.Fatalf("TaryECN[%#x] differs across runs: %d vs %d", addr, e, b.TaryECN[addr])
			}
		}
		for off, e := range a.BranchECN {
			if b.BranchECN[off] != e {
				t.Fatalf("BranchECN[%#x] differs across runs", off)
			}
		}
	}
}
