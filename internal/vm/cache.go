// Predecoded instruction cache: the fetch path of the blockjit engine,
// which also keeps its compiled blocks here. The interpreter's fetch
// path calls visa.Decode on raw bytes at every retired instruction;
// for long-running workloads that is the dominant cost of the stand-in
// CPU. The cache decodes each
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

// Engines. The zero value is the block compiler, so every Process is
// fast by default; the plain interpreter remains available as the
// reference semantics for differential testing.
const (
	// EngineBlockJIT dispatches predecoded instructions from the page
	// cache through their threaded handlers (threaded.go) and compiles
	// hot straight-line blocks into traces of pre-bound steps
	// (blockjit.go), so hot code makes one dispatch per block instead
	// of per instruction. Registered check transactions are predecoded
	// as fused superinstructions (fused.go), the jmpr/callr/jrestore
	// after a check joins its superinstruction, and sandbox-mask +
	// store pairs become trace superinstructions.
	EngineBlockJIT Engine = iota
	// EngineInterp decodes raw bytes at every retired instruction.
	EngineInterp
)

// Engines returns every engine: the reference interpreter and the
// block compiler. Differential tests iterate this list so a newly
// added engine cannot silently drop out of coverage.
func Engines() []Engine {
	return []Engine{EngineInterp, EngineBlockJIT}
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
	if e == EngineInterp {
		return "interp"
	}
	return "blockjit"
}

// ParseEngine parses the -engine flag syntax.
func ParseEngine(s string) (Engine, error) {
	if s == "" {
		return EngineBlockJIT, nil
	}
	for _, e := range Engines() {
		if s == e.String() {
			return e, nil
		}
	}
	return 0, fmt.Errorf("vm: unknown engine %q (want one of: %s)", s, strings.Join(EngineNames(), ", "))
}

// icachePages is how many pages the instruction cache covers: the code
// region, [0, taryCodeLimit), where the runtime installs every module.
// A pc above it runs through the miss path uncached.
const icachePages = taryCodeLimit / PageSize

// pageCache holds the predecoded instructions of one guest page,
// indexed by the instruction's starting offset within the page. It
// holds only the slots it fills: VISA instructions are variable-length
// and only executed ones are decoded, so a code page fills about one
// offset in ten. index maps a filled offset to its fill number n, and
// slot n lives in chunks[n/slotChunkLen], allocated in fill order. A
// fill writes both under mu, then publishes the offset with an atomic
// bitmap store, so concurrent guest threads can share one cache and a
// reader that saw the bit reads both without a lock (slot). A dispatch
// from the cache costs the bitmap load plus two dependent loads, the
// index and the chunk pointer, before the slot itself.
//
// The block compiler's state for the page hangs off the same struct,
// so the cold path's one page-table load serves both the slot and the
// block lookup, and every invalidation that drops a page's decoded
// instructions drops its compiled blocks with them.
type pageCache struct {
	mu    sync.Mutex
	valid [PageSize / 32]uint32
	// direct marks the valid slots the block compiler's run loop
	// dispatches straight away: every one but the compiled block
	// starts, so the loop looks for a block only where one is.
	direct [PageSize / 32]uint32
	// jit holds the page's compiled blocks; nil until the page's first
	// compile, and dropped on its own by extent invalidation
	// (DiscardBlocksExtent).
	jit atomic.Pointer[jitPage]
	// index, chunks and filled are written only under mu; an index
	// entry and its chunk never change once the offset is valid.
	index  [PageSize]uint16
	chunks [PageSize / slotChunkLen]*slotChunk
	filled int
}

// slotChunkLen is the slots one slotChunk holds.
const slotChunkLen = 64

// slotChunk is one fill-ordered stretch of a page's slots.
type slotChunk [slotChunkLen]cacheSlot

// slot returns the slot of page offset off, whose valid bit the caller
// has seen set.
func (c *pageCache) slot(off int) *cacheSlot {
	n := c.index[off]
	return &c.chunks[n/slotChunkLen][n%slotChunkLen]
}

// cacheSlot holds everything one dispatch needs: the predecoded
// instruction, its encoded size, and the operation's func pointer. A
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
// A pc above the cached range, or on a page an invalidation dropped
// during the decode, executes the decoded instruction uncached.
func (p *Process) cacheFill(pc int64) (*visa.Instr, int, error) {
	p.icacheFills.Add(1)
	ins, n, err := p.predecode(pc)
	if err != nil {
		return nil, 0, err
	}
	var c *pageCache
	if pg := uint64(pc) / PageSize; pg < uint64(len(p.icache)) {
		slot := &p.icache[pg]
		if c = slot.Load(); c == nil {
			nc := &pageCache{}
			if slot.CompareAndSwap(nil, nc) {
				c = nc
			} else {
				c = slot.Load()
			}
		}
	}
	if c == nil {
		tmp := ins
		return &tmp, n, nil
	}
	off := int(pc & (PageSize - 1))
	word, bit := &c.valid[off>>5], uint32(1)<<(off&31)
	c.mu.Lock()
	if atomic.LoadUint32(word)&bit == 0 {
		i := c.filled
		c.filled++
		ch := c.chunks[i/slotChunkLen]
		if ch == nil {
			ch = new(slotChunk)
			c.chunks[i/slotChunkLen] = ch
		}
		ch[i%slotChunkLen] = cacheSlot{ins: ins, size: uint8(n), fn: opFuncs[ins.Op]}
		c.index[off] = uint16(i)
		atomic.StoreUint32(word, atomic.LoadUint32(word)|bit)
		setBits(&c.direct[off>>5], bit)
	}
	c.mu.Unlock()
	return &c.slot(off).ins, n, nil
}

// invalidate drops the decode cache of pages [first-1, last) — one
// page before the changed range because a variable-length instruction
// cached there may span into it. Compiled blocks live in the page
// cache and drop with it: a block contains only instructions that
// start inside its own page, so the one-page-back rule covers every
// block that could span the changed range.
//
// A page with no cache is skipped rather than stored nil into, so
// opening a fresh process's data and stack pages writes nothing. Only
// cacheFill's CompareAndSwap(nil, …) installs a page cache, so the skip
// leaves the same race window as the store: a fill that decoded before
// the change and installs its cache after this loop passed the page
// does so in either case.
func (p *Process) invalidate(first, last int64) {
	if first > 0 {
		first--
	}
	if first < 0 {
		first = 0
	}
	for pg := first; pg < last && pg < int64(len(p.icache)); pg++ {
		if p.icache[pg].Load() != nil {
			p.icache[pg].Store(nil)
		}
	}
}

// SetEngine selects the fetch implementation. Call it before the
// process starts executing.
func (p *Process) SetEngine(e Engine) { p.engine = e }

// Engine reports the process's fetch implementation.
func (p *Process) Engine() Engine { return p.engine }

// setBits atomically sets bits in *w.
func setBits(w *uint32, bits uint32) {
	for {
		old := atomic.LoadUint32(w)
		if old&bits == bits || atomic.CompareAndSwapUint32(w, old, old|bits) {
			return
		}
	}
}

// clearBits atomically clears bits in *w.
func clearBits(w *uint32, bits uint32) {
	for {
		old := atomic.LoadUint32(w)
		if old&bits == 0 || atomic.CompareAndSwapUint32(w, old, old&^bits) {
			return
		}
	}
}
