// Predecoded instruction cache: the fetch path of the threaded and
// blockjit engines. The interpreter's fetch path calls visa.Decode on
// raw bytes at every retired instruction; for long-running workloads
// that is the dominant cost of the stand-in CPU. The cache decodes each
// instruction once per executable-page generation into its fixed-size
// internal form (visa.Instr, encoded length and handler) and dispatches
// from the cache thereafter.
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
// the plain interpreter: every handler and superinstruction retires
// exactly the instructions the interpreter's switch would, and the
// Fig. 5/6 cost metric is a property of that stream, not of how it is
// fetched.
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
// Process is fast by default; the plain interpreter remains available
// as the reference semantics for differential testing.
const (
	// EngineThreaded is the direct-threaded engine (see threaded.go):
	// every cache slot carries the operation's func pointer alongside
	// the predecoded instruction, so dispatch is one indirect call.
	// Registered check transactions are predecoded as fused
	// superinstructions (fused.go), the jmpr/callr/jrestore after a
	// check joins its superinstruction, and sandbox-mask + store pairs
	// become trace superinstructions.
	EngineThreaded Engine = iota
	// EngineInterp decodes raw bytes at every retired instruction.
	EngineInterp
	// EngineBlockJIT is the threaded engine plus a profile-guided
	// fill-time block compiler (see blockjit.go): straight-line basic
	// blocks whose execution count crosses the JIT threshold are
	// compiled into a trace of steps with operands pre-bound, so the
	// run loop makes one dispatch per block instead of per
	// instruction. Cold code falls back to threaded dispatch.
	EngineBlockJIT
)

// Engines returns every engine: the reference interpreter, direct
// threading, block compilation. Differential tests
// iterate this list so a newly added engine cannot silently drop out
// of coverage.
func Engines() []Engine {
	return []Engine{EngineInterp, EngineThreaded, EngineBlockJIT}
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
	case EngineBlockJIT:
		return "blockjit"
	}
	return "threaded"
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
// instruction, its encoded size, and the operation's func pointer —
// so a hit touches one cache line instead of three parallel arrays. A
// hit needs no Prot check: slots are filled only after the
// executability check passes, and Protect invalidates every affected
// page on every transition, so a valid slot implies the page has been
// continuously executable since the fill. A slot is immutable once its
// valid bit is published.
type cacheSlot struct {
	ins  visa.Instr
	fn   stepFn
	size uint8
}

// predecode decodes the instruction at pc into the form the cache
// stores: a registered, byte-verified check transaction becomes one
// fused superinstruction (fused.go), and a sandbox-mask + store pair
// one trace superinstruction (threaded.go). The block compiler fetches
// through it too, so compiled blocks retire the identical stream.
func (p *Process) predecode(pc int64) (visa.Instr, int, error) {
	if ins, n, ok := p.tryFuse(pc); ok {
		return ins, n, nil
	}
	ins, n, err := visa.Decode(p.Mem, int(pc))
	if err != nil {
		return ins, n, err
	}
	ins, n = p.tryFuseTrace(ins, n, pc)
	return ins, n, nil
}

// cacheFill predecodes the instruction at pc and publishes it into the
// page's cache. The caller has already checked that pc is executable.
func (p *Process) cacheFill(pc int64) (*visa.Instr, int, error) {
	p.icacheFills.Add(1)
	ins, n, err := p.predecode(pc)
	if err != nil {
		return nil, 0, err
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
