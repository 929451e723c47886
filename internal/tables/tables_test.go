package tables

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"mcfi/internal/id"
)

// newTables returns tables over a heap slice with room for maxBranches
// Bary entries.
func newTables(codeLimit, maxBranches int) *Tables {
	return New(make([]uint32, (codeLimit+3)/4+maxBranches), codeLimit, nil)
}

// setupTwoClasses installs a tiny CFG: target address 0 is in class 1
// (reached by branch 0), target address 4 is in class 2 (reached by
// branch 1).
func setupTwoClasses(t *Tables) {
	taryECN := func(addr int) int {
		switch addr {
		case 0:
			return 1
		case 4:
			return 2
		}
		return -1
	}
	baryECN := func(i int) int {
		switch i {
		case 0:
			return 1
		case 1:
			return 2
		}
		return -1
	}
	t.Update(taryECN, baryECN, UpdateOpts{})
}

func TestCheckBasic(t *testing.T) {
	tb := newTables(64, 4)
	setupTwoClasses(tb)

	if got := tb.Check(0, 0); got != Pass {
		t.Errorf("branch 0 -> addr 0: %v, want pass", got)
	}
	if got := tb.Check(1, 4); got != Pass {
		t.Errorf("branch 1 -> addr 4: %v, want pass", got)
	}
	if got := tb.Check(0, 4); got != Violation {
		t.Errorf("branch 0 -> addr 4 (wrong class): %v, want violation", got)
	}
	if got := tb.Check(0, 8); got != Violation {
		t.Errorf("branch 0 -> addr 8 (not a target): %v, want violation", got)
	}
	if got := tb.Check(0, 2); got != Violation {
		t.Errorf("branch 0 -> addr 2 (misaligned): %v, want violation", got)
	}
	if got := tb.Check(0, -8); got != Violation {
		t.Errorf("branch 0 -> negative addr: %v, want violation", got)
	}
	if got := tb.Check(0, 1<<20); got != Violation {
		t.Errorf("branch 0 -> out of range: %v, want violation", got)
	}
}

func TestUpdateChangesPolicy(t *testing.T) {
	tb := newTables(64, 4)
	setupTwoClasses(tb)
	if tb.Check(0, 4) != Violation {
		t.Fatal("precondition: 0->4 denied")
	}
	// New CFG merges both targets into class 1 for branch 0.
	tb.Update(
		func(addr int) int {
			if addr == 0 || addr == 4 {
				return 1
			}
			return -1
		},
		func(i int) int {
			if i == 0 {
				return 1
			}
			return -1
		},
		UpdateOpts{})
	if got := tb.Check(0, 4); got != Pass {
		t.Errorf("after policy update, 0 -> 4 = %v, want pass", got)
	}
	if tb.Version() != 2 {
		t.Errorf("version = %d, want 2", tb.Version())
	}
	if tb.Updates() != 2 {
		t.Errorf("updates = %d, want 2", tb.Updates())
	}
}

func TestReversionPreservesECNs(t *testing.T) {
	tb := newTables(64, 4)
	setupTwoClasses(tb)
	before := tb.TaryID(0).ECN()
	tb.Reversion(UpdateOpts{})
	after := tb.TaryID(0)
	if after.ECN() != before {
		t.Errorf("reversion changed ECN: %d -> %d", before, after.ECN())
	}
	if after.Version() != 2 {
		t.Errorf("reversion version = %d, want 2", after.Version())
	}
	if tb.Check(0, 0) != Pass {
		t.Error("check must still pass after reversion")
	}
}

func TestLoad32Routing(t *testing.T) {
	tb := newTables(64, 4)
	setupTwoClasses(tb)
	// Tary entry for addr 4.
	if got := id.ID(tb.Load32(4)); !got.Valid() || got.ECN() != 2 {
		t.Errorf("Load32(4) = %08x", got)
	}
	// Bary entry 1 lives at BaryBase + 4.
	if got := id.ID(tb.Load32(int64(tb.BaryBase() + 4))); !got.Valid() || got.ECN() != 2 {
		t.Errorf("Load32(bary 1) = %08x", got)
	}
	// Misaligned loads return the straddled bytes (hardware behavior),
	// which the reserved bits make invalid as an ID.
	if got := id.ID(tb.Load32(3)); got.Valid() {
		t.Errorf("misaligned Load32 yields valid ID %08x", uint32(got))
	}
	if tb.Load32(-4) != 0 {
		t.Error("negative Load32 should be 0")
	}
	if tb.Load32(int64(tb.BaryBase()+4*100)) != 0 {
		t.Error("past-end Load32 should be 0")
	}
}

func TestMisalignedTaryLoadNeverValid(t *testing.T) {
	tb := newTables(256, 1)
	// Fill every entry with a valid ID.
	tb.Update(func(addr int) int { return (addr / 4) % 7 },
		func(i int) int { return 0 }, UpdateOpts{})
	for addr := 1; addr < 252; addr++ {
		if addr%4 == 0 {
			continue
		}
		if tb.TaryID(addr).Valid() {
			t.Fatalf("misaligned TaryID(%d) is valid", addr)
		}
	}
}

// TestConcurrentCheckUpdateInvariant is the linearizability property
// from §5.2: while update transactions concurrently re-version all
// IDs, every check must still return the verdict of a consistent CFG —
// allowed edges never spuriously fail, forbidden edges never
// spuriously pass.
func TestConcurrentCheckUpdateInvariant(t *testing.T) {
	tb := newTables(1024, 16)
	taryECN := func(addr int) int {
		if addr%8 == 0 {
			return (addr / 8 % 8) + 1
		}
		return -1
	}
	baryECN := func(i int) int {
		if i < 8 {
			return i + 1
		}
		return -1
	}
	tb.Update(taryECN, baryECN, UpdateOpts{})

	const checkers = 4
	const iters = 20000
	stop := make(chan struct{})
	var updWG sync.WaitGroup

	// Updater thread: continuous re-versioning (an aggressive Fig. 6).
	updWG.Add(1)
	go func() {
		defer updWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tb.Reversion(UpdateOpts{Parallel: false})
			}
		}
	}()

	errc := make(chan string, 3*checkers)
	var chkWG sync.WaitGroup
	for c := 0; c < checkers; c++ {
		chkWG.Add(1)
		go func(seed int) {
			defer chkWG.Done()
			for i := 0; i < iters; i++ {
				branch := (i + seed) % 8
				// Allowed: branch b -> address 8*b.
				if v := tb.Check(branch, 8*branch); v != Pass {
					errc <- "allowed edge failed"
					return
				}
				// Forbidden: branch b -> address of another class.
				other := 8 * ((branch + 1) % 8)
				if v := tb.Check(branch, other); v != Violation {
					errc <- "forbidden edge passed"
					return
				}
				// Never a target.
				if v := tb.Check(branch, 4); v != Violation {
					errc <- "non-target passed"
					return
				}
			}
		}(c)
	}
	chkWG.Wait()
	close(stop)
	updWG.Wait()
	close(errc)
	for msg := range errc {
		t.Error(msg)
	}
	if tb.Updates() < 2 {
		t.Logf("warning: only %d updates ran during the race window", tb.Updates())
	}
}

func TestParallelPublish(t *testing.T) {
	tb := newTables(1<<17, 4) // large enough to trigger the parallel path
	tb.Update(func(addr int) int { return addr / 4 % 100 },
		func(i int) int { return i }, UpdateOpts{Parallel: true})
	// Spot-check several entries.
	for _, addr := range []int{0, 4, 400, 1 << 16} {
		got := tb.TaryID(addr)
		if !got.Valid() || got.ECN() != addr/4%100 {
			t.Errorf("TaryID(%d) = %08x, ECN %d", addr, uint32(got), got.ECN())
		}
	}
}

func TestSTMCheckersAgree(t *testing.T) {
	checkers := NewCheckers(64, 4, setupTwoClasses)
	cases := []struct {
		branch, target int
		want           Verdict
	}{
		{0, 0, Pass}, {1, 4, Pass}, {0, 4, Violation}, {0, 8, Violation},
	}
	for _, ck := range checkers {
		for _, c := range cases {
			if got := ck.Check(c.branch, c.target); got != c.want {
				t.Errorf("%s: check(%d, %d) = %v, want %v",
					ck.Name(), c.branch, c.target, got, c.want)
			}
		}
		ck.Reversion()
		for _, c := range cases {
			if got := ck.Check(c.branch, c.target); got != c.want {
				t.Errorf("%s after reversion: check(%d, %d) = %v, want %v",
					ck.Name(), c.branch, c.target, got, c.want)
			}
		}
	}
}

func TestSTMCheckersConcurrent(t *testing.T) {
	for _, ck := range NewCheckers(1024, 16, func(tb *Tables) {
		tb.Update(func(addr int) int {
			if addr%8 == 0 {
				return addr/8%8 + 1
			}
			return -1
		}, func(i int) int {
			if i < 8 {
				return i + 1
			}
			return -1
		}, UpdateOpts{})
	}) {
		ck := ck
		t.Run(ck.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						ck.Reversion()
					}
				}
			}()
			bad := false
			for i := 0; i < 5000 && !bad; i++ {
				b := i % 8
				if ck.Check(b, 8*b) != Pass {
					t.Errorf("%s: allowed edge failed at %d", ck.Name(), i)
					bad = true
				}
				if ck.Check(b, 8*((b+1)%8)) != Violation {
					t.Errorf("%s: forbidden edge passed at %d", ck.Name(), i)
					bad = true
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

func TestABARisk(t *testing.T) {
	tb := newTables(16, 1)
	if tb.ABARisk() {
		t.Error("fresh tables should not report ABA risk")
	}
	// Simulate many updates cheaply.
	for i := 0; i < 100; i++ {
		tb.Reversion(UpdateOpts{})
	}
	if tb.ABARisk() {
		t.Error("100 updates is far from 2^14")
	}
}

func TestVersionWrapsAt14Bits(t *testing.T) {
	tb := newTables(16, 1)
	tb.Update(func(int) int { return 1 }, func(int) int { return 1 }, UpdateOpts{})
	for i := 0; i < id.MaxVersion+5; i++ {
		tb.Reversion(UpdateOpts{})
	}
	if v := tb.Version(); v >= id.MaxVersion {
		t.Errorf("version %d out of 14-bit range", v)
	}
	// Checks still pass after wraparound.
	if tb.Check(0, 0) != Pass {
		t.Error("check fails after version wraparound")
	}
}

func TestPropCheckTotal(t *testing.T) {
	tb := newTables(256, 8)
	setupTwoClasses(tb)
	f := func(branch int16, target int32) bool {
		v := tb.Check(int(branch)%16, int(target)%512)
		return v == Pass || v == Violation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestStringSummary(t *testing.T) {
	tb := newTables(64, 4)
	setupTwoClasses(tb)
	s := tb.String()
	if s == "" {
		t.Error("empty summary")
	}
}

// TestInitMatchesUpdate: the first policy published by Init leaves
// fresh tables exactly as a full Update with the same ECNs does — the
// same words, version, counters and hook calls — including for targets
// past the covered extent, misaligned targets, negative ECNs and more
// branches than the Bary table holds.
func TestInitMatchesUpdate(t *testing.T) {
	const codeLimit, branches, covered = 1 << 12, 16, 3000
	taryECN := map[int]int{0: 1, 8: 2, 12: -1, 13: 3, 2996: 4, 3000: 5, 4092: 6}
	baryECN := make([]int, branches+4)
	for i := range baryECN {
		baryECN[i] = i%3 - 1
	}
	type hookCall struct{ lo, hi int }
	mk := func() (*Tables, *[]hookCall) {
		tb := newTables(codeLimit, branches)
		tb.SetCovered(covered)
		var calls []hookCall
		tb.OnUpdateExtent(func(lo, hi int) { calls = append(calls, hookCall{lo, hi}) })
		return tb, &calls
	}
	direct, directCalls := mk()
	direct.Init(taryECN, baryECN)
	txn, txnCalls := mk()
	txn.Update(func(addr int) int {
		if ecn, ok := taryECN[addr]; ok {
			return ecn
		}
		return -1
	}, func(i int) int { return baryECN[i] }, UpdateOpts{})

	dt, db := direct.Snapshot()
	tt, tbry := txn.Snapshot()
	if !slices.Equal(dt, tt) || !slices.Equal(db, tbry) {
		t.Errorf("Init published\n tary %x\n bary %x\nUpdate published\n tary %x\n bary %x", dt, db, tt, tbry)
	}
	if direct.Version() != txn.Version() || direct.Updates() != txn.Updates() ||
		direct.UpdatesSinceQuiescence() != txn.UpdatesSinceQuiescence() {
		t.Errorf("Init left version %d, updates %d, since quiescence %d; Update left %d, %d, %d",
			direct.Version(), direct.Updates(), direct.UpdatesSinceQuiescence(),
			txn.Version(), txn.Updates(), txn.UpdatesSinceQuiescence())
	}
	if !slices.Equal(*directCalls, *txnCalls) {
		t.Errorf("Init ran hooks %v, Update ran %v", *directCalls, *txnCalls)
	}
	if direct.String() != txn.String() {
		t.Errorf("Init: %s, Update: %s", direct, txn)
	}

	defer func() {
		if recover() == nil {
			t.Error("Init on updated tables did not panic")
		}
	}()
	txn.Init(taryECN, baryECN)
}
