// Predecoded execution engine: a per-executable-page instruction
// cache. The interpreter's fetch path calls visa.Decode on raw bytes
// at every retired instruction; for long-running workloads that is the
// dominant cost of the stand-in CPU. The cached engine decodes each
// instruction once into its fixed-size internal form (visa.Instr plus
// encoded length) and dispatches from the cache thereafter.
//
// Correctness hinges on precise invalidation. Code can only change
// while its page is not executable (the W^X invariant), and every
// protection transition goes through Process.Protect — the runtime's
// mprotect/mmap analogue and the dlopen path both use it — so Protect
// drops the cache of every affected page. Because VISA instructions
// are variable-length (up to 10 bytes), an instruction cached in page
// P may extend into page P+1; invalidating a range therefore also
// drops the page immediately before it.
//
// Retired-instruction counts and fault behavior are bit-identical to
// the plain interpreter: both engines feed the same decoded
// instruction stream to the same execution switch, and the Fig. 5/6
// cost metric is a property of that stream, not of how it is fetched.
package vm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"mcfi/internal/visa"
)

// Engine selects the instruction-fetch implementation of a Process.
type Engine int

// Engines. The zero value is the direct-threaded engine, so every
// Process is fast by default (the ROADMAP soak criterion: mcfi-serve
// defaulted to threaded for several PRs first); the plain interpreter
// remains available for differential testing and as the reference
// semantics.
const (
	// EngineThreaded is the direct-threaded engine (see threaded.go):
	// every cache slot carries the operation's func pointer alongside
	// the predecoded instruction, so dispatch is one indirect call. It
	// subsumes EngineFused's check fusion and adds branch folding (the
	// jmpr/callr/jrestore after a check joins its superinstruction) and
	// trace-level superinstructions (sandbox-mask + store pairs).
	EngineThreaded Engine = iota
	// EngineInterp decodes raw bytes at every retired instruction.
	EngineInterp
	// EngineCached fetches from the per-page predecoded cache.
	EngineCached
	// EngineFused is the cached engine plus check-transaction fusion:
	// at decode time each registered canonical check sequence is
	// replaced by one superinstruction executing the whole transaction
	// in host Go (see fused.go). Retired-instruction counts stay
	// bit-identical to the other engines.
	EngineFused
	// EngineBlockJIT is the threaded engine plus a profile-guided
	// fill-time block compiler (see blockjit.go): straight-line basic
	// blocks whose execution count crosses the JIT threshold are
	// compiled into a trace of steps with operands pre-bound, so the
	// run loop makes one dispatch per block instead of per
	// instruction. Cold code falls back to threaded dispatch.
	EngineBlockJIT
)

// Engines returns every engine, in engine-ladder order (the order the
// PRs added them: reference interpreter, predecode, check fusion,
// direct threading, block compilation). Differential tests iterate
// this list so a newly added engine cannot silently drop out of
// coverage.
func Engines() []Engine {
	return []Engine{EngineInterp, EngineCached, EngineFused, EngineThreaded, EngineBlockJIT}
}

// EngineNames returns the flag names of every engine, in Engines()
// order — the single source for ParseEngine errors, CLI flag help, and
// server-side request validation.
func EngineNames() []string {
	es := Engines()
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.String()
	}
	return names
}

// String names the engine (flag syntax of cmd/mcfi-run and
// cmd/mcfi-bench).
func (e Engine) String() string {
	switch e {
	case EngineInterp:
		return "interp"
	case EngineCached:
		return "cached"
	case EngineFused:
		return "fused"
	case EngineBlockJIT:
		return "blockjit"
	}
	return "threaded"
}

// fusesChecks reports whether the engine predecodes registered check
// transactions into fused superinstructions at icache-fill time.
func (e Engine) fusesChecks() bool {
	return e == EngineFused || e == EngineThreaded || e == EngineBlockJIT
}

// foldsBranches reports whether the engine folds the indirect branch
// after a check (and trace superinstructions) into its cache slots —
// the threaded fill path, which the block compiler builds on.
func (e Engine) foldsBranches() bool {
	return e == EngineThreaded || e == EngineBlockJIT
}

// ParseEngine parses the -engine flag syntax.
func ParseEngine(s string) (Engine, error) {
	if s == "" {
		return EngineThreaded, nil
	}
	for _, e := range Engines() {
		if s == e.String() {
			return e, nil
		}
	}
	return 0, fmt.Errorf("vm: unknown engine %q (want one of: %s)", s, strings.Join(EngineNames(), ", "))
}

// pageCache holds the predecoded instructions of one guest page,
// indexed by the instruction's starting offset within the page. Slots
// are published with an atomic bitmap store after their fields are
// written, so concurrent guest threads can share one cache; fills take
// the mutex (slow path only — each slot is decoded once per page
// generation).
type pageCache struct {
	mu    sync.Mutex
	valid [PageSize / 32]uint32
	slots [PageSize]cacheSlot
}

// cacheSlot colocates everything one dispatch needs — the predecoded
// instruction, its encoded size, and the operation's func pointer (the
// direct-threaded engine's dispatch target) — so a hit touches one
// cache line instead of three parallel arrays. fn is filled for every
// slot regardless of engine: it is a pure function of ins.Op, so the
// extra store costs nothing and a page shared across engine settings
// stays safe.
type cacheSlot struct {
	ins  visa.Instr
	fn   stepFn
	size uint8
}

// cacheHit returns the predecoded instruction at pc if its cache slot
// is valid. A hit needs no Prot check: slots are filled only after the
// executability check passes, and Protect invalidates every affected
// page on every transition, so a valid slot implies the page has been
// continuously executable since the fill. The returned pointer aliases
// the cache entry, which is immutable once its valid bit is published.
func (p *Process) cacheHit(pc int64) (*visa.Instr, int, bool) {
	pg := pc / PageSize
	if pc < 0 || pg >= int64(len(p.icache)) {
		return nil, 0, false
	}
	c := p.icache[pg].Load()
	if c == nil {
		return nil, 0, false
	}
	off := int(pc & (PageSize - 1))
	if atomic.LoadUint32(&c.valid[off>>5])&(uint32(1)<<(off&31)) == 0 {
		return nil, 0, false
	}
	s := &c.slots[off]
	return &s.ins, int(s.size), true
}

// cacheFill decodes the instruction at pc and publishes it into the
// page's cache. The caller has already checked that pc is executable.
// Under the check-fusing engines (fused, threaded, blockjit) a
// registered, byte-verified check transaction is predecoded as one
// fused superinstruction instead; the branch-folding engines
// additionally fuse sandbox-mask + store pairs into trace
// superinstructions.
func (p *Process) cacheFill(pc int64) (*visa.Instr, int, error) {
	p.icacheFills.Add(1)
	ins, n, ok := p.tryFuse(pc)
	if !ok {
		var err error
		ins, n, err = visa.Decode(p.Mem, int(pc))
		if err != nil {
			return nil, 0, err
		}
		if p.engine.foldsBranches() {
			ins, n = p.tryFuseTrace(ins, n, pc)
		}
	}
	slot := &p.icache[pc/PageSize]
	c := slot.Load()
	if c == nil {
		nc := &pageCache{}
		if slot.CompareAndSwap(nil, nc) {
			c = nc
		} else {
			c = slot.Load()
		}
	}
	if c == nil {
		// The page was invalidated while we were decoding; execute the
		// instruction we decoded without caching it.
		tmp := ins
		return &tmp, n, nil
	}
	off := int(pc & (PageSize - 1))
	word, bit := &c.valid[off>>5], uint32(1)<<(off&31)
	c.mu.Lock()
	if atomic.LoadUint32(word)&bit == 0 {
		c.slots[off] = cacheSlot{ins: ins, size: uint8(n), fn: opFuncs[ins.Op]}
		atomic.StoreUint32(word, atomic.LoadUint32(word)|bit)
	}
	c.mu.Unlock()
	return &c.slots[off].ins, n, nil
}

// invalidate drops the decode cache of pages [first-1, last) — one
// page before the changed range because a variable-length instruction
// cached there may span into it. The block compiler's pages drop on
// the same bounds: a compiled block contains only instructions that
// start inside its own page, so the one-page-back rule covers every
// block that could span the changed range. (Protect additionally
// bumps the check epoch over the same extent, so cached verdicts
// bound to the old bytes cannot be replayed either.)
func (p *Process) invalidate(first, last int64) {
	if first > 0 {
		first--
	}
	if first < 0 {
		first = 0
	}
	for pg := first; pg < last && pg < int64(len(p.icache)); pg++ {
		p.icache[pg].Store(nil)
		p.jit.pages[pg].Store(nil)
	}
}

// SetEngine selects the fetch implementation. Call it before the
// process starts executing.
func (p *Process) SetEngine(e Engine) { p.engine = e }

// Engine reports the process's fetch implementation.
func (p *Process) Engine() Engine { return p.engine }
