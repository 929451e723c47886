// Package tables implements MCFI's runtime ID tables — the Bary
// (branch-ID) and Tary (target-ID) tables — and the transactions that
// access them (paper §5).
//
// Both tables live in one table region outside the guest's reach: a
// []uint32 the caller supplies, accessed only through sync/atomic (the
// VM's TLOAD/TLOADI instructions route here, standing in for the
// paper's %gs-relative loads). The runtime's region is part of the
// guest sandbox's mapping, past the guard band, outside the Go heap
// (package vm); tests and micro-benchmarks pass a slice they make. The
// Tary table is an array indexed by code address / 4: every
// four-byte-aligned code address has an entry, either a valid ID or
// all zeros. The Bary table is a dense array of branch IDs; the loader
// patches each check sequence with its constant Bary index (paper
// §5.1).
//
// The first policy is published by Init, straight into the zero region
// before any check can run. Later update transactions (paper Fig. 3)
// serialize on an update lock, increment the global version, rebuild
// the Tary table, publish it entry-by-atomic-entry (the movnti parallel
// copy), execute a memory barrier, and only then update the Bary table
// — so concurrent check transactions observe either the old CFG or the
// new CFG, never a mix.
//
// Check transactions (paper Fig. 4) are implemented twice: natively in
// the VM's instrumentation sequence, and here in Check for host-side
// use (the dynamic linker, tests, and the STM micro-benchmarks).
package tables

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mcfi/internal/id"
)

// Verdict is the outcome of a check transaction.
type Verdict int

// Check outcomes.
const (
	// Pass: branch ID equals target ID; control transfer allowed.
	Pass Verdict = iota
	// Violation: the target is not a valid indirect-branch target or
	// belongs to a different equivalence class. Execution must halt.
	Violation
)

// String names the verdict.
func (v Verdict) String() string {
	if v == Pass {
		return "pass"
	}
	return "violation"
}

// Tables is the MCFI table region.
type Tables struct {
	// tary has one entry per four bytes of code region.
	tary []uint32
	// bary is the dense branch-ID array.
	bary []uint32
	// version is the current 14-bit global version number.
	version uint32
	// updMu is the global update lock (Fig. 3 line 3).
	updMu sync.Mutex
	// updates counts completed update transactions, for ABA tracking
	// (§5.2 "The ABA Problem").
	updates atomic.Int64
	// sinceQuiescence counts update transactions since the last
	// observed quiescence point — the counter the paper proposes to
	// keep below 2^14: "if every thread is observed to finish using
	// old-version IDs (e.g., when each thread invokes a system call),
	// the counter is reset to zero".
	sinceQuiescence atomic.Int64
	// retries counts check-transaction retries observed by host-side
	// Check calls (telemetry for the Fig. 6 experiment).
	retries atomic.Int64
	// codeLimit is the capacity of the Tary table in code bytes.
	codeLimit int
	// covered is the currently loaded code extent: update transactions
	// rebuild only [0, covered), keeping their cost proportional to
	// the program like the paper's code-sized Tary table. Reads may
	// still probe the whole capacity (uncovered entries are zero).
	covered atomic.Int64
	// hooks run at the end of every update transaction, while updMu is
	// still held — after the new Bary IDs are published. Subscribers
	// (the VM's fused-check verdict cache) use them to drop state bound
	// to the previous CFG. Each hook receives the code-byte extent
	// [lo, hi) whose Tary entries the transaction may have changed;
	// full transactions pass the whole covered range.
	hooks []func(lo, hi int)
	// scratch is the reusable staging buffer update transactions batch-
	// construct fresh IDs into before publishing. One buffer suffices:
	// updates are serialized by updMu.
	scratch []uint32
	// owner keeps the memory behind tary and bary valid (see New).
	owner any
}

// BaryBase is the byte offset of the Bary table within the table
// region as seen by TLOADI (the Tary table starts at offset 0,
// mirroring "the Tary table starts at %gs").
func (t *Tables) BaryBase() int { return t.codeLimit }

// New lays tables out over words: the Tary table, one word per four
// bytes of codeLimit (rounded up to a multiple of 4), then the Bary
// table, one word per indirect branch, in the rest. words must be zero
// and from now on be accessed only through the returned Tables. They
// may lie outside the Go heap: owner, if not nil, is what keeps them
// valid, and stays reachable as long as the Tables does.
func New(words []uint32, codeLimit int, owner any) *Tables {
	codeLimit = (codeLimit + 3) &^ 3
	nt := codeLimit / 4
	if len(words) < nt {
		panic(fmt.Sprintf("tables: %d words cannot hold the Tary table of %d code bytes", len(words), codeLimit))
	}
	t := &Tables{
		tary:      words[:nt:nt],
		bary:      words[nt:],
		codeLimit: codeLimit,
		owner:     owner,
	}
	t.covered.Store(int64(codeLimit))
	return t
}

// SetCovered bounds the code extent that update transactions rebuild
// (rounded up to a word). The loader raises it as modules are linked.
func (t *Tables) SetCovered(limit int) {
	if limit < 0 {
		limit = 0
	}
	if limit > t.codeLimit {
		limit = t.codeLimit
	}
	t.covered.Store(int64((limit + 3) &^ 3))
}

// coveredWords returns the number of Tary words updates must rebuild.
func (t *Tables) coveredWords() int { return int(t.covered.Load()) / 4 }

// CodeLimit returns the size of the code region covered by Tary.
func (t *Tables) CodeLimit() int { return t.codeLimit }

// Version returns the current global version number.
func (t *Tables) Version() int { return int(atomic.LoadUint32(&t.version)) }

// Updates returns the number of completed update transactions.
func (t *Tables) Updates() int64 { return t.updates.Load() }

// OnUpdate subscribes fn to run at the end of every update transaction
// (Update, Reversion, and UpdateDelta), after the new IDs are published
// and before the update lock is released. fn must be fast and must not
// call back into update transactions; it may run concurrently with
// check transactions, which is exactly the situation it exists to
// signal.
func (t *Tables) OnUpdate(fn func()) {
	t.OnUpdateExtent(func(int, int) { fn() })
}

// OnUpdateExtent is OnUpdate with the changed code-byte extent [lo, hi)
// passed to the hook, so subscribers can invalidate only the state
// bound to code whose Tary entries may actually have moved. Full
// transactions (Update/Reversion) report the entire covered range;
// UpdateDelta reports the delta extent.
func (t *Tables) OnUpdateExtent(fn func(lo, hi int)) {
	t.updMu.Lock()
	defer t.updMu.Unlock()
	t.hooks = append(t.hooks, fn)
}

// notifyUpdate runs the subscribed hooks; the caller holds updMu.
func (t *Tables) notifyUpdate(lo, hi int) {
	for _, fn := range t.hooks {
		fn(lo, hi)
	}
}

// Retries returns the number of host-side check retries observed.
func (t *Tables) Retries() int64 { return t.retries.Load() }

// Load32 performs the table-region read used by the VM's TLOAD/TLOADI:
// a single atomic 32-bit load at a byte offset. Offsets in
// [0, codeLimit) read the Tary table; offsets past BaryBase() read the
// Bary table. Misaligned or out-of-range offsets return 0 — an invalid
// ID, so the check transaction treats them as violations, exactly as a
// stray read of unmapped table memory would behave.
func (t *Tables) Load32(byteOff int64) uint32 {
	if byteOff < 0 {
		return 0
	}
	if byteOff < int64(t.codeLimit) {
		if byteOff&3 != 0 {
			// A real 4-byte load at a misaligned address returns the
			// straddled bytes of the neighboring IDs — which the
			// reserved-bit layout guarantees can never form a valid ID
			// (paper §5.1). Reproduce the exact bytes hardware would
			// observe.
			return t.misalignedLoad(int(byteOff))
		}
		return atomic.LoadUint32(&t.tary[byteOff/4])
	}
	if byteOff&3 != 0 {
		return 0
	}
	bi := (byteOff - int64(t.codeLimit)) / 4
	if bi < int64(len(t.bary)) {
		return atomic.LoadUint32(&t.bary[bi])
	}
	return 0
}

// TaryID returns the target ID stored for a code address (atomic).
// Misaligned addresses yield an invalid ID by construction.
func (t *Tables) TaryID(addr int) id.ID {
	if addr < 0 || addr >= t.codeLimit {
		return 0
	}
	if addr&3 != 0 {
		// A real 4-byte load at a misaligned address straddles entries;
		// reconstruct the exact bytes it would observe.
		return id.ID(t.misalignedLoad(addr))
	}
	return id.ID(atomic.LoadUint32(&t.tary[addr/4]))
}

func (t *Tables) misalignedLoad(addr int) uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		a := addr + i
		var b byte
		if a >= 0 && a < t.codeLimit {
			w := atomic.LoadUint32(&t.tary[a/4])
			b = byte(w >> (8 * (a % 4)))
		}
		v |= uint32(b) << (8 * i)
	}
	return v
}

// BaryID returns the branch ID at a Bary index (atomic).
func (t *Tables) BaryID(index int) id.ID {
	if index < 0 || index >= len(t.bary) {
		return 0
	}
	return id.ID(atomic.LoadUint32(&t.bary[index]))
}

// NumBranches returns the Bary table capacity.
func (t *Tables) NumBranches() int { return len(t.bary) }

// Check runs a check transaction (TxCheck, paper Fig. 4): given the
// Bary index embedded at the branch site and the dynamic target
// address, it decides whether the transfer is allowed. On a version
// mismatch — an update transaction is concurrently publishing a new
// CFG — it retries until the relevant IDs agree.
func (t *Tables) Check(baryIndex, target int) Verdict {
	for {
		bid := t.BaryID(baryIndex) // movl %gs:ConstBaryIndex, %edi
		tid := t.TaryID(target)    // movl %gs:(%rcx), %esi
		if bid == tid {            // cmpl %edi, %esi — the fast path:
			return Pass // validity, version, and ECN in one compare
		}
		if !tid.LowBitSet() { // testb $1, %sil
			return Violation // invalid target (misaligned or not an IBT)
		}
		if !id.SameVersion(bid, tid) { // cmpw %di, %si
			// The paper's loader guarantees branch IDs are always valid
			// (§5.1), so a version mismatch can only mean a concurrent
			// update. Defensively, an invalid branch ID (unset or out of
			// range Bary index) is reported as a violation rather than
			// retried forever.
			if !bid.Valid() {
				return Violation
			}
			t.retries.Add(1)
			continue // jne Try — concurrent update in flight
		}
		return Violation // same version, different ECN: CFI violation
	}
}

// ECNFunc maps a code address to its equivalence-class number, or a
// negative value when the address is not an indirect-branch target
// (paper §5.2 getTaryECN) or the index holds no branch (getBaryECN).
type ECNFunc func(addrOrIndex int) int

// UpdateOpts tunes an update transaction.
type UpdateOpts struct {
	// Parallel publishes the new Tary table with multiple goroutines,
	// modelling the paper's movnti parallel memory copy. Sequential
	// publication is the ablation baseline (BenchmarkAblationCopy).
	Parallel bool
	// Between, if non-nil, runs after the Tary phase and before the
	// Bary phase — the slot where the dynamic linker rewrites GOT
	// entries (paper §5.2, PLT discussion), serialized by the same
	// barrier discipline.
	Between func()
}

// scratchWords returns the zeroed staging buffer for n words, growing
// it as the covered extent grows. Callers hold updMu.
func (t *Tables) scratchWords(n int) []uint32 {
	if cap(t.scratch) < n {
		t.scratch = make([]uint32, n)
		return t.scratch
	}
	s := t.scratch[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// transact is the shared body of the full update transactions (Update
// and Reversion): acquire the update lock, consume a fresh version,
// batch-construct the new Tary contents into the scratch buffer,
// publish, barrier, run the Between slot, rewrite every Bary entry.
func (t *Tables) transact(opts UpdateOpts, fillTary func(fresh []uint32, ver int), baryID func(i, ver int) uint32) {
	t.updMu.Lock() // globalUpdateLock.acquire()
	defer t.updMu.Unlock()

	ver := int(t.version+1) % id.MaxVersion
	atomic.StoreUint32(&t.version, uint32(ver))

	// updTaryTable: construct the new table, then publish it with
	// atomic per-entry stores (each ID update is atomic; entries are
	// independent, enabling the parallel copy).
	nw := t.coveredWords()
	fresh := t.scratchWords(nw)
	fillTary(fresh, ver)
	t.publish(t.tary[:nw], fresh, opts.Parallel)

	// sfence: all Tary writes complete before any Bary write. Go's
	// atomic stores are sequentially consistent, which subsumes the
	// paper's store-ordering barrier; the call below marks the
	// linearization point.
	memoryBarrier()

	if opts.Between != nil {
		opts.Between()
		memoryBarrier()
	}

	// updBaryTable.
	for i := range t.bary {
		atomic.StoreUint32(&t.bary[i], baryID(i, ver))
	}
	t.updates.Add(1)
	t.sinceQuiescence.Add(1)
	t.notifyUpdate(0, nw*4)
}

// Init publishes the first policy without an update transaction: no
// check transaction can run yet and every word is still zero, so it
// stores only the valid IDs — taryECN's targets inside the covered
// extent, and baryECN[i] at Bary index i (negative: no branch). It
// leaves the tables as an Update with the same ECNs would: the same
// words, version, update counters, and hook calls. Init panics on
// tables that have seen an update.
func (t *Tables) Init(taryECN map[int]int, baryECN []int) {
	t.updMu.Lock()
	defer t.updMu.Unlock()
	if t.updates.Load() != 0 {
		panic("tables: Init after an update transaction")
	}
	ver := int(t.version+1) % id.MaxVersion
	atomic.StoreUint32(&t.version, uint32(ver))
	cov := int(t.covered.Load())
	for addr, ecn := range taryECN {
		if addr >= 0 && addr < cov && addr&3 == 0 && ecn >= 0 {
			atomic.StoreUint32(&t.tary[addr/4], uint32(id.Encode(ecn, ver)))
		}
	}
	for i, ecn := range baryECN[:min(len(baryECN), len(t.bary))] {
		if ecn >= 0 {
			atomic.StoreUint32(&t.bary[i], uint32(id.Encode(ecn, ver)))
		}
	}
	t.updates.Add(1)
	t.sinceQuiescence.Add(1)
	t.notifyUpdate(0, cov)
}

// Update runs an update transaction (TxUpdate, paper Fig. 3): it
// acquires the global update lock, increments the version, installs
// new Tary IDs for every four-byte-aligned code address, issues the
// memory barrier, then installs new Bary IDs.
func (t *Tables) Update(getTaryECN, getBaryECN ECNFunc, opts UpdateOpts) {
	t.transact(opts, func(fresh []uint32, ver int) {
		for w := range fresh {
			if ecn := getTaryECN(w * 4); ecn >= 0 {
				fresh[w] = uint32(id.Encode(ecn, ver))
			}
		}
	}, func(i, ver int) uint32 {
		if ecn := getBaryECN(i); ecn >= 0 {
			return uint32(id.Encode(ecn, ver))
		}
		return 0
	})
}

// Reversion re-publishes every existing ID under a new version while
// preserving ECNs — the synthetic 50 Hz update used in the Fig. 6
// experiment ("updates the version numbers of all IDs in the ID tables
// (but preserving the ECNs)").
func (t *Tables) Reversion(opts UpdateOpts) {
	t.transact(opts, func(fresh []uint32, ver int) {
		for w := range fresh {
			if old := id.ID(atomic.LoadUint32(&t.tary[w])); old.Valid() {
				fresh[w] = uint32(id.Encode(old.ECN(), ver))
			}
		}
	}, func(i, ver int) uint32 {
		if old := id.ID(atomic.LoadUint32(&t.bary[i])); old.Valid() {
			return uint32(id.Encode(old.ECN(), ver))
		}
		return uint32(atomic.LoadUint32(&t.bary[i]))
	})
}

// UpdateDelta runs a delta update transaction: instead of rebuilding
// and republishing the whole covered Tary range, it publishes only the
// IDs a module load actually changed — the freshly covered extent
// [covered, newLimit) plus any already-covered words and Bary entries
// whose equivalence class moved — so a dlopen costs O(module), not
// O(program).
//
// The delta is version-NEUTRAL: new IDs are encoded under the current
// global version and the version is not bumped. This is what makes
// partial publication safe. The check transaction's retry fires only
// on a version mismatch between a valid branch ID and a valid target
// ID; were the delta to consume a new version while leaving untouched
// words at the old one, a checker could pair a new-version branch ID
// with an old-version target ID of the same class and spin forever.
// At a single version every published ID is immediately consistent
// with every untouched ID, so checks decide without retrying.
//
// Version-neutrality is sound because a delta never moves an existing
// address to a *different* valid class — callers fall back to a full
// Update when classes merge across modules. Each word therefore goes
// monotonically from invalid (or absent) to its one new ID, every
// individual store is atomic, and any interleaving a checker observes
// is either the old policy (target invalid → violation, as before the
// load) or the new one. Because no version is consumed, delta updates
// do not advance the ABA counter: a parked checker that saw version v
// still finds version v, not a 2^14-wrapped reincarnation (§5.2's ABA
// guard continues to govern the full-update path only).
//
// taryECN maps code addresses (4-byte aligned) to their new ECNs and
// baryECN maps Bary indexes likewise; a negative ECN clears the entry.
// The freshly covered extent is batch-built into the reusable scratch
// buffer and published in one pass; entries inside the old extent are
// compare-before-store so untouched words generate no coherence
// traffic. Returns the number of table words actually stored.
func (t *Tables) UpdateDelta(newLimit int, taryECN, baryECN map[int]int, opts UpdateOpts) int {
	t.updMu.Lock()
	defer t.updMu.Unlock()

	oldCov := int(t.covered.Load())
	if newLimit < oldCov {
		newLimit = oldCov
	}
	if newLimit > t.codeLimit {
		newLimit = t.codeLimit
	}
	newCov := (newLimit + 3) &^ 3
	oldNW, nw := oldCov/4, newCov/4
	ver := int(atomic.LoadUint32(&t.version)) // version-neutral: see above
	stored := 0
	lo := oldCov // changed-extent low bound, for the invalidation hooks

	// Changed words inside the already-covered extent (e.g. an old
	// function newly made address-taken): compare-before-store.
	for addr, ecn := range taryECN {
		if addr < 0 || addr >= oldCov || addr&3 != 0 {
			continue
		}
		var nid uint32
		if ecn >= 0 {
			nid = uint32(id.Encode(ecn, ver))
		}
		if atomic.LoadUint32(&t.tary[addr/4]) != nid {
			atomic.StoreUint32(&t.tary[addr/4], nid)
			stored++
			if addr < lo {
				lo = addr
			}
		}
	}

	// The freshly covered extent is batch-built once into the scratch
	// buffer, then published like a full transaction's Tary phase
	// (publish itself skips the goroutine fan-out for small deltas).
	if nw > oldNW {
		fresh := t.scratchWords(nw - oldNW)
		for w := range fresh {
			if ecn, ok := taryECN[(oldNW+w)*4]; ok && ecn >= 0 {
				fresh[w] = uint32(id.Encode(ecn, ver))
			}
		}
		t.publish(t.tary[oldNW:nw], fresh, opts.Parallel)
		stored += nw - oldNW
	}
	t.covered.Store(int64(newCov))

	memoryBarrier()
	if opts.Between != nil {
		opts.Between()
		memoryBarrier()
	}

	for i, ecn := range baryECN {
		if i < 0 || i >= len(t.bary) {
			continue
		}
		var nid uint32
		if ecn >= 0 {
			nid = uint32(id.Encode(ecn, ver))
		}
		if atomic.LoadUint32(&t.bary[i]) != nid {
			atomic.StoreUint32(&t.bary[i], nid)
			stored++
		}
	}
	t.updates.Add(1)
	// No version was consumed, so sinceQuiescence stays put: the ABA
	// hazard exists only when versions can wrap past a parked checker.
	t.notifyUpdate(lo, newCov)
	return stored
}

// publish copies fresh into dst with atomic stores, optionally fanned
// out over goroutines (the movnti parallel copy). The fan-out width
// follows the host's parallelism; small inputs — full tables of small
// programs and most delta extents — stay sequential, where the
// goroutine handoff would cost more than the copy.
func (t *Tables) publish(dst, fresh []uint32, parallel bool) {
	shards := runtime.GOMAXPROCS(0)
	if !parallel || shards < 2 || len(dst) < 1<<14 {
		for w := range dst {
			atomic.StoreUint32(&dst[w], fresh[w])
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(dst) + shards - 1) / shards
	for s := 0; s < shards; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > len(dst) {
			hi = len(dst)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for w := lo; w < hi; w++ {
				atomic.StoreUint32(&dst[w], fresh[w])
			}
		}(lo, hi)
	}
	wg.Wait()
}

// memoryBarrier is the paper's sfence. Go's sync/atomic operations are
// sequentially consistent, so a no-op suffices for correctness; the
// function exists to mark the linearization points in the code.
func memoryBarrier() {}

// ABARisk reports whether the version space could have wrapped while a
// check transaction was parked: 2^14 update transactions have completed
// since the last quiescence point (§5.2). The runtime refuses further
// policy updates while this holds; QuiescencePoint clears it.
func (t *Tables) ABARisk() bool {
	return t.sinceQuiescence.Load() >= id.MaxVersion-1
}

// UpdatesSinceQuiescence returns the paper's ABA counter.
func (t *Tables) UpdatesSinceQuiescence() int64 { return t.sinceQuiescence.Load() }

// QuiescencePoint resets the ABA counter. The runtime calls it when
// every thread has been observed outside a check transaction (at a
// system call) since the most recent update transaction.
func (t *Tables) QuiescencePoint() { t.sinceQuiescence.Store(0) }

// Snapshot returns a copy of the live Tary and Bary contents, used by
// the verifier and by debugging tools.
func (t *Tables) Snapshot() (tary, bary []uint32) {
	tary = make([]uint32, len(t.tary))
	for i := range t.tary {
		tary[i] = atomic.LoadUint32(&t.tary[i])
	}
	bary = make([]uint32, len(t.bary))
	for i := range t.bary {
		bary[i] = atomic.LoadUint32(&t.bary[i])
	}
	return tary, bary
}

// String summarizes table occupancy.
func (t *Tables) String() string {
	return fmt.Sprintf("tables{code=%dB, tary=%d/%d, bary=%d/%d, ver=%d}",
		t.codeLimit, countValid(t.tary), len(t.tary), countValid(t.bary), len(t.bary), t.Version())
}

// countValid counts the valid IDs in words, in place.
func countValid(words []uint32) int {
	n := 0
	for i := range words {
		if id.ID(atomic.LoadUint32(&words[i])).Valid() {
			n++
		}
	}
	return n
}
