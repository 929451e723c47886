// Profile-guided block compiler: EngineBlockJIT, the production
// engine. Cold code runs on the threaded handlers (threaded.go), one
// instruction-cache probe plus one indirect call per retired
// instruction. Each hot straight-line block is compiled into a trace —
// a contiguous array of pre-bound steps the run loop executes with one
// lookup per *block* — so the per-instruction costs (icache probe,
// valid-bitmap test, watermark compare, PC/Instret stores for pure ops)
// are paid once per block instead of once per instruction. Pure
// register steps are bound as inline micro-ops (a jump-table dispatch
// with operands and constants pre-extracted — no call at all), and so
// is every guest memory access: loads, stores, PUSH, POP and the
// rewriter's mask+store pair run the same inlined width-specific
// accessors (vm.go) the handlers call. The remaining steps that can
// fault or leave the VM (syscalls, divisions, table loads, calls and
// returns, checks) keep a pre-bound func pointer to their threaded
// handler.
//
// Profile guidance: every control transfer reports its target, a
// potential block start, to a per-thread table of entry counters
// (Thread.noteStart), and only starts whose count reaches the JIT
// threshold pay compile cost. A block is compiled from the
// instructions its page cache already holds, so compiling decodes
// nothing. The run loop keeps threaded dispatch's cost on cold code: a
// page cache marks its compiled block starts off the direct-dispatch
// bitmap, so only those pcs look for a block.
//
// Block boundaries. A block is the maximal trace from its start such
// that every instruction *starts* inside the start's page and has been
// fetched before: it follows the fall-through edge of conditional
// branches (a taken branch exits the block early with PC on the
// target), folds forward unconditional jumps within the page, and ends
// at the first unpredictable transfer (indirect branch, call, return,
// syscall, hlt, longjmp, backward jump), at a fused check
// superinstruction's join (the check manages PC itself — on retry
// exhaustion it loops back to the transaction start), at an
// instruction the run has not reached yet, or at the page boundary.
// Blocks live in the page cache of their start's page, so every
// invalidation that drops a page cache drops its blocks with it, and
// the icache's one-page-back rule covers every block whose
// instructions could span a changed range.
//
// Invalidation: a block is stamped with the compiler's epoch read
// before compiling, and the dispatcher refuses any block whose stamp
// is below the discard floor. A full update transaction advances the
// epoch and the floor with it (DiscardBlocks), condemning every block;
// a delta update drops only the compiled blocks of the pages
// overlapping the changed extent (DiscardBlocksExtent), so blocks
// elsewhere survive, and Protect drops the page caches themselves.
// Either way a block never runs code bytes from before the change (its
// checks do their table loads at execution); a condemned block is
// dropped and its start re-profiled.
//
// Accounting is bit-identical to the interpreter. Pure register steps
// and memory steps defer their Instret/PC updates into a pending count
// that the next handler or branch step (or the block epilogue) credits
// before acting. A memory step records the count deferred before it
// and its own PC, so when its access faults the cold path (stepFault)
// credits that count plus the step itself and reports the fault at
// the step's PC: the exact interp-engine Instret and fault PC. Near
// the instruction budget — within the block's retire bound — the
// dispatcher falls back to single stepping, and a superinstruction
// stops short of the budget on an instruction boundary (Thread.edge),
// so ErrBudget lands on the precise instruction.
package vm

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"mcfi/internal/rewrite"
	"mcfi/internal/visa"
)

// defaultBlockThreshold is the execution count at which a block start
// becomes hot and is compiled. Tests lower it per process with
// SetJITThreshold to compile eagerly.
const defaultBlockThreshold = 64

// maxBlockSteps bounds the compiled steps of one block, so a page of
// straight-line code cannot produce an unboundedly expensive compile
// or an arbitrarily long poll-free run.
const maxBlockSteps = 256

// Micro-op kinds of a compiled block step. The zero value is the
// handler delegation so a mis-initialized step fails safe (through
// the threaded handler, never a silent register micro-op).
const (
	kHandler  uint8 = iota // delegate to the threaded handler (calls[s.call])
	kEnd                   // block epilogue: credit retires, land PC
	kJmp                   // pre-bound direct jump (backward / page-leaving)
	kCall                  // pre-bound direct call
	kJcc                   // conditional branch: taken exits the block
	kCmpRRJcc              // fused reg-reg compare + conditional branch
	kCmpRIJcc              // fused reg-imm compare + conditional branch

	// Memory micro-ops: the same inlined accessors the handlers call,
	// the same clobber-on-fault quirk, and Instret/PC deferred like a
	// pure step's; only a fault (stepFault) credits them. r1 = data
	// register, r2 = base register, imm = displacement; kPush and kPop
	// use r1 only.
	kLd8
	kLd8U
	kLd16
	kLd16U
	kLd32
	kLd32U
	kLd64
	kSt8
	kSt16
	kSt32
	kSt64
	kPush
	kPop

	// Pure register/flag micro-ops: cannot fault, Instret/PC deferred.
	kMovI
	kMov
	kAdd
	kSub
	kMul
	kAnd
	kOr
	kXor
	kShl
	kShr
	kSar
	kNeg
	kNot
	kAddI
	kAndI
	kCmp
	kCmpI
	kCmpW
	kTestB
	kFCmp
	kSet
	kSx8
	kSx16
	kSx32
	kZx8
	kZx16
	kAnd32
	kFAdd
	kFSub
	kFMul
	kFDiv
	kCvIF
	kCvFI
)

// blockStep is one micro-op of a compiled block: a kind tag plus
// pre-extracted operands, 32 bytes, stored in a contiguous array — the
// block loop walks it like the icache slot array instead of chasing
// per-step heap closures. The few steps that call a threaded handler
// keep it in the block's calls array. Field use by kind:
//
//	pures:     r1, r2, imm as in the source instruction (cc for kSet)
//	memory:    r1, r2, imm as above; pc = the access's own PC,
//	           pending = retires deferred before it (credited on fault)
//	kJcc:      cc; pc = fall-through, next = taken, pending = retire
//	kCmp*Jcc:  compare in r1/r2/imm, branch as kJcc
//	kJmp:      imm = target, pending = retire
//	kCall:     pc = call site, next = return address, imm = target
//	kEnd:      pc = fall-through PC, pending = retire
//	kHandler:  calls[call] + pc/next per the stepFn contract
//
// pending fits 16 bits: it counts instructions the compiler walked
// through inside one page since the last step that credits them.
type blockStep struct {
	kind    uint8
	cc      uint8
	r1, r2  uint8
	pending int16
	call    uint16
	imm     int64
	pc      int64
	next    int64
}

// stepCall is a block step's threaded handler and the instruction it
// runs on.
type stepCall struct {
	h   stepFn
	ins visa.Instr
}

// compiledBlock is one compiled block.
type compiledBlock struct {
	// epoch is the compiler's epoch the block's bytes and fused-check
	// bindings were read at; the dispatcher drops the block when the
	// stamp falls below the process's discard floor (advanced by each
	// full-range update transaction).
	epoch int64
	// steps is the block body, executed in order by Thread.runBlock;
	// calls holds its handler steps' calls.
	steps []blockStep
	calls []stepCall
	// maxRetire bounds the instructions one dispatch can retire: each
	// instruction the compiler walked counts once, a handler step its
	// maxRetireOf. It is exact for a block without a check. The
	// dispatcher single-steps instead when the remaining budget is
	// smaller, keeping ErrBudget exact.
	maxRetire int64
}

// jitPage holds the compiled blocks of one guest page, indexed by
// page offset like the page cache it hangs off (pageCache.jit). Blocks
// start only at control-transfer targets, so the table is two-level:
// one chunk of chunkLen entries is allocated per stretch of the page
// that has a block, and a page with a handful of hot loops costs a few
// KiB, not a pointer per byte. The page is installed on its first
// compile, so code that never gets hot costs nothing. Pointers are
// published whole and read lock-free.
type jitPage struct {
	chunks [PageSize / chunkLen]atomic.Pointer[blockChunk]
}

// chunkLen is the page offsets one blockChunk covers.
const chunkLen = 64

// blockChunk is one second-level stretch of a jitPage.
type blockChunk [chunkLen]atomic.Pointer[compiledBlock]

// block returns the block compiled at page offset off, if any.
func (jp *jitPage) block(off int) *compiledBlock {
	if ch := jp.chunks[off/chunkLen].Load(); ch != nil {
		return ch[off%chunkLen].Load()
	}
	return nil
}

// slot returns the entry for page offset off, installing its chunk.
func (jp *jitPage) slot(off int) *atomic.Pointer[compiledBlock] {
	chp := &jp.chunks[off/chunkLen]
	ch := chp.Load()
	if ch == nil {
		chp.CompareAndSwap(nil, new(blockChunk))
		ch = chp.Load()
	}
	return &ch[off%chunkLen]
}

// jitState is the block compiler's per-process state plus its
// process-wide counters (flushed from threads at the watermark
// cadence, read lock-free by serving metrics).
type jitState struct {
	threshold int64

	// epoch stamps every compiled block; floor is the discard floor: a
	// block whose stamp is below it is stale. DiscardBlocks advances
	// both (full invalidation); DiscardBlocksExtent leaves them alone
	// and drops pages' blocks instead (extent invalidation).
	// Invariant: floor <= epoch, so a freshly stamped block is never
	// born stale.
	epoch atomic.Int64
	floor atomic.Int64

	compiled     atomic.Int64
	compileNanos atomic.Int64
	discards     atomic.Int64
	blockRuns    atomic.Int64
	coldSteps    atomic.Int64
}

// DiscardBlocks condemns every compiled block: the discard floor
// advances to a new epoch. The runtime subscribes it to full-range
// table update transactions.
func (p *Process) DiscardBlocks() {
	p.jit.floor.Store(p.jit.epoch.Add(1))
}

// DiscardBlocksExtent is the delta-update variant: instead of
// condemning every compiled block it drops only those of the pages
// overlapping [lo, hi), so blocks outside the changed extent survive a
// dlopen.
func (p *Process) DiscardBlocksExtent(lo, hi int64) {
	first := lo / PageSize
	if first > 0 {
		first-- // a block one page back may span into the extent
	}
	last := (hi + PageSize - 1) / PageSize
	for pg := first; pg >= 0 && pg < last && pg < int64(len(p.icache)); pg++ {
		if c := p.icache[pg].Load(); c != nil {
			c.dropBlocks()
		}
	}
}

// startHashBits sizes each thread's block-start profile
// (Thread.startHits).
const startHashBits = 10

// startHash maps a block start to its profile counter. Starts that
// collide share a counter, which only makes the colder one compile
// sooner; a hot start stops counting once its block is compiled.
func startHash(pc int64) uint32 {
	return uint32(pc^pc>>startHashBits) & (1<<startHashBits - 1)
}

// SetJITThreshold sets the block-compile execution threshold for
// EngineBlockJIT: <= 0 restores the default of 64, and a threshold
// above math.MaxUint32 disables compilation, so every instruction
// runs on the threaded handlers. Call before the process
// starts executing.
func (p *Process) SetJITThreshold(n int64) { p.jit.threshold = n }

// jitThreshold returns the effective compile threshold, 0 when
// compilation is disabled.
func (p *Process) jitThreshold() uint32 {
	switch n := p.jit.threshold; {
	case n <= 0:
		return defaultBlockThreshold
	case n > math.MaxUint32:
		return 0
	default:
		return uint32(n)
	}
}

// block returns the block compiled at page offset off, if any.
func (c *pageCache) block(off int) *compiledBlock {
	if jp := c.jit.Load(); jp != nil {
		return jp.block(off)
	}
	return nil
}

// dropBlocks discards the page's compiled blocks and marks every
// valid slot for direct dispatch again. (A block a concurrent compile
// publishes into the dropped table is never found; it may leave its
// start off the direct path, which costs that slot a block lookup.)
func (c *pageCache) dropBlocks() {
	if c.jit.Swap(nil) == nil {
		return
	}
	for i := range c.direct {
		setBits(&c.direct[i], atomic.LoadUint32(&c.valid[i]))
	}
}

// jitPage returns the page's compiled-block table, installing one if
// needed. If an invalidation races the install the orphan table is
// returned; a block stored into it is simply never found, which only
// delays recompilation.
func (c *pageCache) jitPage() *jitPage {
	if jp := c.jit.Load(); jp != nil {
		return jp
	}
	njp := &jitPage{}
	if c.jit.CompareAndSwap(nil, njp) {
		return njp
	}
	if jp := c.jit.Load(); jp != nil {
		return jp
	}
	return njp
}

// runBlock executes one compiled block body and returns nil when the
// block ran to its end or exited early at a taken branch (PC is on
// the branch target); a non-nil error is a real fault or exit from a
// handler step.
func (t *Thread) runBlock(b *compiledBlock) error {
	ss := b.steps
	for i := range ss {
		s := &ss[i]
		switch s.kind {
		case kHandler:
			t.Instret += int64(s.pending)
			t.PC = s.pc
			c := &b.calls[s.call]
			if err := c.h(t, &c.ins, s.pc, s.next); err != nil {
				return err
			}
		case kEnd:
			t.Instret += int64(s.pending)
			t.PC = s.pc
			t.noteStart(s.pc)
		case kJmp:
			t.Instret += int64(s.pending)
			t.PC = s.imm
			t.noteStart(s.imm)
		case kCall:
			t.Instret += int64(s.pending)
			t.PC = s.pc // a stack fault reports the call's own address
			if err := t.push(s.next); err != nil {
				return err
			}
			t.PC = s.imm
			t.noteStart(s.imm)
		case kJcc:
			t.Instret += int64(s.pending)
			if t.cond(s.cc) {
				t.PC = s.next
				t.noteStart(s.next)
				return nil
			}
			t.PC = s.pc
		case kCmpRRJcc:
			t.Instret += int64(s.pending)
			t.fa, t.fb, t.fFloat = t.Reg[s.r1], t.Reg[s.r2], false
			if t.cond(s.cc) {
				t.PC = s.next
				t.noteStart(s.next)
				return nil
			}
			t.PC = s.pc
		case kCmpRIJcc:
			t.Instret += int64(s.pending)
			t.fa, t.fb, t.fFloat = t.Reg[s.r1], s.imm, false
			if t.cond(s.cc) {
				t.PC = s.next
				t.noteStart(s.next)
				return nil
			}
			t.PC = s.pc
		case kLd8:
			addr := t.Reg[s.r2] + s.imm
			v, ok := t.load8(addr)
			t.Reg[s.r1] = int64(int8(v))
			if !ok {
				return t.stepFault(s, addr, 1, visa.ProtRead)
			}
		case kLd8U:
			addr := t.Reg[s.r2] + s.imm
			v, ok := t.load8(addr)
			t.Reg[s.r1] = int64(v)
			if !ok {
				return t.stepFault(s, addr, 1, visa.ProtRead)
			}
		case kLd16:
			addr := t.Reg[s.r2] + s.imm
			v, ok := t.load16(addr)
			t.Reg[s.r1] = int64(int16(v))
			if !ok {
				return t.stepFault(s, addr, 2, visa.ProtRead)
			}
		case kLd16U:
			addr := t.Reg[s.r2] + s.imm
			v, ok := t.load16(addr)
			t.Reg[s.r1] = int64(v)
			if !ok {
				return t.stepFault(s, addr, 2, visa.ProtRead)
			}
		case kLd32:
			addr := t.Reg[s.r2] + s.imm
			v, ok := t.load32(addr)
			t.Reg[s.r1] = int64(int32(v))
			if !ok {
				return t.stepFault(s, addr, 4, visa.ProtRead)
			}
		case kLd32U:
			addr := t.Reg[s.r2] + s.imm
			v, ok := t.load32(addr)
			t.Reg[s.r1] = int64(v)
			if !ok {
				return t.stepFault(s, addr, 4, visa.ProtRead)
			}
		case kLd64:
			addr := t.Reg[s.r2] + s.imm
			v, ok := t.load64(addr)
			t.Reg[s.r1] = int64(v)
			if !ok {
				return t.stepFault(s, addr, 8, visa.ProtRead)
			}
		case kSt8:
			if addr := t.Reg[s.r2] + s.imm; !t.store8(addr, uint8(t.Reg[s.r1])) {
				return t.stepFault(s, addr, 1, visa.ProtWrite)
			}
		case kSt16:
			if addr := t.Reg[s.r2] + s.imm; !t.store16(addr, uint16(t.Reg[s.r1])) {
				return t.stepFault(s, addr, 2, visa.ProtWrite)
			}
		case kSt32:
			if addr := t.Reg[s.r2] + s.imm; !t.store32(addr, uint32(t.Reg[s.r1])) {
				return t.stepFault(s, addr, 4, visa.ProtWrite)
			}
		case kSt64:
			if addr := t.Reg[s.r2] + s.imm; !t.store64(addr, uint64(t.Reg[s.r1])) {
				return t.stepFault(s, addr, 8, visa.ProtWrite)
			}
		case kPush:
			v := t.Reg[s.r1]
			t.Reg[visa.SP] -= 8
			if sp := t.Reg[visa.SP]; !t.store64(sp, uint64(v)) {
				return t.stepFault(s, sp, 8, visa.ProtWrite)
			}
		case kPop:
			sp := t.Reg[visa.SP]
			v, ok := t.load64(sp)
			if !ok {
				return t.stepFault(s, sp, 8, visa.ProtRead)
			}
			t.Reg[visa.SP] = sp + 8
			t.Reg[s.r1] = int64(v)
		case kMovI:
			t.Reg[s.r1] = s.imm
		case kMov:
			t.Reg[s.r1] = t.Reg[s.r2]
		case kAdd:
			t.Reg[s.r1] += t.Reg[s.r2]
		case kSub:
			t.Reg[s.r1] -= t.Reg[s.r2]
		case kMul:
			t.Reg[s.r1] *= t.Reg[s.r2]
		case kAnd:
			t.Reg[s.r1] &= t.Reg[s.r2]
		case kOr:
			t.Reg[s.r1] |= t.Reg[s.r2]
		case kXor:
			t.Reg[s.r1] ^= t.Reg[s.r2]
		case kShl:
			t.Reg[s.r1] <<= uint64(t.Reg[s.r2]) & 63
		case kShr:
			t.Reg[s.r1] = int64(uint64(t.Reg[s.r1]) >> (uint64(t.Reg[s.r2]) & 63))
		case kSar:
			t.Reg[s.r1] >>= uint64(t.Reg[s.r2]) & 63
		case kNeg:
			t.Reg[s.r1] = -t.Reg[s.r1]
		case kNot:
			t.Reg[s.r1] = ^t.Reg[s.r1]
		case kAddI:
			t.Reg[s.r1] += s.imm
		case kAndI:
			t.Reg[s.r1] &= s.imm
		case kCmp:
			t.fa, t.fb, t.fFloat = t.Reg[s.r1], t.Reg[s.r2], false
		case kCmpI:
			t.fa, t.fb, t.fFloat = t.Reg[s.r1], s.imm, false
		case kCmpW:
			t.fa, t.fb, t.fFloat = t.Reg[s.r1]&0xFFFF, t.Reg[s.r2]&0xFFFF, false
		case kTestB:
			t.fa, t.fb, t.fFloat = t.Reg[s.r1]&s.imm&0xFF, 0, false
		case kFCmp:
			t.ffa = math.Float64frombits(uint64(t.Reg[s.r1]))
			t.ffb = math.Float64frombits(uint64(t.Reg[s.r2]))
			t.fFloat = true
		case kSet:
			if t.cond(s.cc) {
				t.Reg[s.r2] = 1
			} else {
				t.Reg[s.r2] = 0
			}
		case kSx8:
			t.Reg[s.r1] = int64(int8(t.Reg[s.r1]))
		case kSx16:
			t.Reg[s.r1] = int64(int16(t.Reg[s.r1]))
		case kSx32:
			t.Reg[s.r1] = int64(int32(t.Reg[s.r1]))
		case kZx8:
			t.Reg[s.r1] = int64(uint8(t.Reg[s.r1]))
		case kZx16:
			t.Reg[s.r1] = int64(uint16(t.Reg[s.r1]))
		case kAnd32:
			t.Reg[s.r1] = int64(uint32(t.Reg[s.r1]))
		case kFAdd:
			a := math.Float64frombits(uint64(t.Reg[s.r1]))
			b := math.Float64frombits(uint64(t.Reg[s.r2]))
			t.Reg[s.r1] = int64(math.Float64bits(a + b))
		case kFSub:
			a := math.Float64frombits(uint64(t.Reg[s.r1]))
			b := math.Float64frombits(uint64(t.Reg[s.r2]))
			t.Reg[s.r1] = int64(math.Float64bits(a - b))
		case kFMul:
			a := math.Float64frombits(uint64(t.Reg[s.r1]))
			b := math.Float64frombits(uint64(t.Reg[s.r2]))
			t.Reg[s.r1] = int64(math.Float64bits(a * b))
		case kFDiv:
			// Float division cannot fault (0/0 is NaN, x/0 is Inf).
			a := math.Float64frombits(uint64(t.Reg[s.r1]))
			b := math.Float64frombits(uint64(t.Reg[s.r2]))
			t.Reg[s.r1] = int64(math.Float64bits(a / b))
		case kCvIF:
			t.Reg[s.r1] = int64(math.Float64bits(float64(t.Reg[s.r1])))
		case kCvFI:
			fv := math.Float64frombits(uint64(t.Reg[s.r1]))
			switch {
			case math.IsNaN(fv):
				t.Reg[s.r1] = 0
			case fv >= math.MaxInt64:
				t.Reg[s.r1] = math.MaxInt64
			case fv <= math.MinInt64:
				t.Reg[s.r1] = math.MinInt64
			default:
				t.Reg[s.r1] = int64(fv)
			}
		}
	}
	return nil
}

// stepFault is a compiled memory step's cold path: the step and the
// retires deferred before it are credited, PC lands on the step, and
// memFault builds the fault there.
//
//go:noinline
func (t *Thread) stepFault(s *blockStep, addr, n int64, prot uint32) error {
	t.Instret += int64(s.pending) + 1
	t.PC = s.pc
	return t.memFault(addr, n, prot)
}

// memKind maps a plain load or store, PUSH or POP to its memory
// micro-op kind. The trace mask+store compiles to a pure step and
// storeKind's store step; the check superinstructions keep their
// threaded handlers.
func memKind(op visa.Op) (uint8, bool) {
	switch op {
	case visa.LD8:
		return kLd8, true
	case visa.LD8U:
		return kLd8U, true
	case visa.LD16:
		return kLd16, true
	case visa.LD16U:
		return kLd16U, true
	case visa.LD32:
		return kLd32, true
	case visa.LD32U:
		return kLd32U, true
	case visa.LD64:
		return kLd64, true
	case visa.ST8:
		return kSt8, true
	case visa.ST16:
		return kSt16, true
	case visa.ST32:
		return kSt32, true
	case visa.ST64:
		return kSt64, true
	case visa.PUSH:
		return kPush, true
	case visa.POP:
		return kPop, true
	}
	return 0, false
}

// storeKind maps a store width in bytes, as a trace mask+store slot
// records it, to its store micro-op kind.
func storeKind(n uint8) uint8 {
	switch n {
	case 1:
		return kSt8
	case 2:
		return kSt16
	case 4:
		return kSt32
	}
	return kSt64
}

// pureKind maps an instruction whose only architectural effect is on
// registers or flags — it cannot fault, touch memory, or transfer
// control — to its micro-op kind. Returns false for anything
// effectful; the compiler then emits a handler step.
func pureKind(op visa.Op) (uint8, bool) {
	switch op {
	case visa.MOVI:
		return kMovI, true
	case visa.MOV:
		return kMov, true
	case visa.ADD:
		return kAdd, true
	case visa.SUB:
		return kSub, true
	case visa.MUL:
		return kMul, true
	case visa.AND:
		return kAnd, true
	case visa.OR:
		return kOr, true
	case visa.XOR:
		return kXor, true
	case visa.SHL:
		return kShl, true
	case visa.SHR:
		return kShr, true
	case visa.SAR:
		return kSar, true
	case visa.NEG:
		return kNeg, true
	case visa.NOTI:
		return kNot, true
	case visa.ADDI:
		return kAddI, true
	case visa.ANDI:
		return kAndI, true
	case visa.CMP:
		return kCmp, true
	case visa.CMPI:
		return kCmpI, true
	case visa.CMPW:
		return kCmpW, true
	case visa.TESTB:
		return kTestB, true
	case visa.FCMP:
		return kFCmp, true
	case visa.SET:
		return kSet, true
	case visa.SX8:
		return kSx8, true
	case visa.SX16:
		return kSx16, true
	case visa.SX32:
		return kSx32, true
	case visa.ZX8:
		return kZx8, true
	case visa.ZX16:
		return kZx16, true
	case visa.AND32:
		return kAnd32, true
	case visa.FADD:
		return kFAdd, true
	case visa.FSUB:
		return kFSub, true
	case visa.FMUL:
		return kFMul, true
	case visa.FDIV:
		// Float division cannot fault (0/0 is NaN, x/0 is Inf).
		return kFDiv, true
	case visa.CVIF:
		return kCvIF, true
	case visa.CVFI:
		return kCvFI, true
	}
	return 0, false
}

// bindPureStep builds the micro-op step for a pure instruction. SET
// keeps its condition code in cc (R1 is the condition operand).
func bindPureStep(kind uint8, ins visa.Instr) blockStep {
	s := blockStep{kind: kind, r1: ins.R1, r2: ins.R2, imm: ins.Imm}
	if kind == kSet {
		s.cc = ins.R1
	}
	return s
}

// runBlockJIT is EngineBlockJIT's run loop. The outer block performs
// exactly the checks the interpreter's Run loop does at its poll
// points — budget, exit, cancellation, counter flush — and the inner
// loop then executes without per-step checks until the next
// watermark: the same 1024-retired-instruction cadence, with the
// budget clamped in so exhaustion is detected on the precise
// instruction, not at the next flush. The fetch is open-coded (a
// helper call is measurable at this dispatch rate), and the unsigned
// page-index compare folds the pc<0 check into the bounds check.
//
// A slot on the direct bitmap dispatches through its handler at once;
// only a valid slot off it — a compiled block start — looks for its
// block. Profiling happens where control transfers
// (Thread.noteStart), not here, so cold code costs what threaded
// dispatch costs. Cold steps are counted in a local and credited once
// per window.
func (t *Thread) runBlockJIT(maxInstr int64) error {
	p := t.P
	icache := p.icache
	t.startThreshold = p.jitThreshold()
	t.noteStart(t.PC) // entering from the host is a control transfer too
	blockBudget := int64(math.MaxInt64)
	if maxInstr > 0 {
		blockBudget = maxInstr
	}
	t.edge = blockBudget
	for {
		if maxInstr > 0 && t.Instret >= maxInstr {
			return fmt.Errorf("%w (limit %d)", ErrBudget, maxInstr)
		}
		if p.exited.Load() {
			return ErrExited
		}
		if p.cancelled.Load() {
			return ErrCancelled
		}
		t.flushCounters()
		limit := t.flushed + 1024
		if maxInstr > 0 && maxInstr < limit {
			limit = maxInstr
		}
		// The discard floor is re-read once per watermark window.
		floor := p.jit.floor.Load()
		var cold int64
		for t.Instret < limit {
			pc := t.PC
			if pg := uint64(pc) / PageSize; pg < uint64(len(icache)) {
				if c := icache[pg].Load(); c != nil {
					off := int(pc & (PageSize - 1))
					w, bit := off>>5, uint32(1)<<(off&31)
					if atomic.LoadUint32(&c.direct[w])&bit != 0 {
						cold++
						s := &c.slots[off]
						if err := s.fn(t, &s.ins, pc, pc+int64(s.size)); err != nil {
							return t.creditCold(cold, err)
						}
						continue
					}
					if atomic.LoadUint32(&c.valid[w])&bit != 0 {
						// A compiled block starts here: run it if it is
						// current and fits the budget. Within maxRetire of
						// the budget the tail single-steps, so exhaustion
						// lands on the exact instruction.
						if b := c.block(off); b != nil {
							if b.epoch < floor {
								p.discard(c, off, b)
							} else if t.Instret+b.maxRetire <= blockBudget {
								t.JITBlockRuns++
								if err := t.runBlock(b); err != nil {
									return t.creditCold(cold, err)
								}
								continue
							}
						}
						cold++
						s := &c.slots[off]
						if err := s.fn(t, &s.ins, pc, pc+int64(s.size)); err != nil {
							return t.creditCold(cold, err)
						}
						continue
					}
				}
			}
			// Miss: check executability, fill the slot, dispatch once
			// from the fill result (the slot may not have been cached if
			// the page raced an invalidation).
			cold++
			if p.Prot(pc)&visa.ProtExec == 0 {
				return t.creditCold(cold, t.fault(FaultExec, "pc %#x not executable", pc))
			}
			ins, size, err := p.cacheFill(pc)
			if err != nil {
				return t.creditCold(cold, t.fault(FaultDecode, "%v", err))
			}
			if err := opFuncs[ins.Op](t, ins, pc, pc+int64(size)); err != nil {
				return t.creditCold(cold, err)
			}
		}
		t.JITColdSteps += cold
	}
}

// creditCold adds a window's cold dispatches to the thread's count
// and returns err, for the run loop's exits.
func (t *Thread) creditCold(n int64, err error) error {
	t.JITColdSteps += n
	return err
}

// noteStart profiles pc, the target of a control transfer, as a block
// start. The counters are the thread's own, so counting takes no
// atomic operation; once a start has been entered startThreshold times
// its block is compiled (compileAt). The counter restarts either way,
// so a start whose block already exists pays one check per
// startThreshold entries.
func (t *Thread) noteStart(pc int64) {
	h := &t.startHits[startHash(pc)]
	if *h++; *h == t.startThreshold {
		*h = 0
		t.P.compileAt(pc)
	}
}

// discard drops a block stamped below the discard floor: it was
// compiled before the last full update transaction, so stale code
// bytes or pre-bound state can never execute. Its start goes back to
// direct dispatch and re-profiles.
func (p *Process) discard(c *pageCache, off int, b *compiledBlock) {
	if jp := c.jit.Load(); jp != nil && jp.slot(off).CompareAndSwap(b, nil) {
		p.jit.discards.Add(1)
		setBits(&c.direct[off>>5], uint32(1)<<(off&31))
	}
}

// compileAt compiles the block starting at pc and publishes it in the
// page cache, replacing a stale one, unless a current one exists or
// pc's instruction has never been fetched (its page cache slot is
// empty).
func (p *Process) compileAt(pc int64) {
	if p.jitThreshold() == 0 {
		return // a start counter wrapped around with compilation disabled
	}
	pg := uint64(pc) / PageSize
	if pg >= uint64(len(p.icache)) {
		return
	}
	c := p.icache[pg].Load()
	if c == nil || c.slotAt(pc, int64(pg+1)*PageSize) == nil {
		return
	}
	off := int(pc & (PageSize - 1))
	old := c.block(off)
	if old == nil || old.epoch < p.jit.floor.Load() {
		// Take the block table before compiling: an extent
		// invalidation during the compile orphans it, so the block is
		// never found.
		jp := c.jitPage()
		b := p.compileBlock(c, pc)
		if b == nil || !jp.slot(off).CompareAndSwap(old, b) {
			return
		}
		if old != nil {
			p.jit.discards.Add(1) // a stale block replaced
		}
	}
	// The run loop looks for a block only off the direct path.
	clearBits(&c.direct[off>>5], uint32(1)<<(off&31))
}

// terminatesBlock reports whether an instruction unconditionally ends
// a compiled trace: any unpredictable control transfer (indirect
// branch, call, return), the syscall gate (the handler may redirect
// PC), and the fused check superinstructions (they manage PC
// themselves, including the retry-exhaustion loop back to the
// transaction start). Conditional branches and direct jumps do NOT
// terminate: the compiler follows their fall-through / target edge.
func terminatesBlock(op visa.Op) bool {
	switch op {
	case visa.CALL, visa.CALLR, visa.JMPR, visa.RET,
		visa.SYS, visa.HLT, visa.JRESTORE,
		opFusedCheck, opFusedCheckPLT:
		return true
	}
	return false
}

// maxRetireOf bounds how many guest instructions one step of the
// given opcode can retire. Fused checks are bounded by their
// host-side retry cap plus the pass tail and folded branch span; the
// bounds are deliberately conservative (an overestimate only makes
// the dispatcher single-step a little earlier near the budget).
func maxRetireOf(op visa.Op) int64 {
	switch op {
	case opFusedCheck:
		return 8*maxFusedRetries + 16
	case opFusedCheckPLT:
		return 11*maxFusedRetries + 16
	}
	return 1
}

// slotAt returns the page cache's slot at pc, or nil when pc is past
// the page or its instruction has never been fetched.
func (c *pageCache) slotAt(pc, pageEnd int64) *cacheSlot {
	if pc >= pageEnd {
		return nil
	}
	off := int(pc & (PageSize - 1))
	if atomic.LoadUint32(&c.valid[off>>5])&(uint32(1)<<(off&31)) == 0 {
		return nil
	}
	return &c.slots[off]
}

// compileBlock compiles the trace starting at start, in the page
// cached by c, into a compiledBlock, or returns nil when there is
// nothing to compile. It reads the instructions the page cache has
// already predecoded — so it decodes nothing, and the block retires
// exactly what the cold path would — and the trace ends at the first
// instruction never fetched: that is a path the run has not taken
// yet, and if it gets hot it becomes a block start of its own. A
// block compiled from a page cache that an invalidation dropped lands
// in that orphaned cache and is never dispatched. The epoch stamp is
// read first, so a full update transaction during the compile leaves
// the block stale on arrival.
func (p *Process) compileBlock(c *pageCache, start int64) *compiledBlock {
	t0 := time.Now()
	epoch := p.jit.epoch.Load()
	pageEnd := (start/PageSize + 1) * PageSize

	// Compile into a buffer on the stack and keep an exact-size copy:
	// each loop iteration appends at most two steps and the epilogue
	// one more, so the buffer never grows.
	var buf [maxBlockSteps + 2]blockStep
	var cbuf [maxBlockSteps + 2]stepCall
	steps, calls := buf[:0], cbuf[:0]
	call := func(ins visa.Instr) uint16 {
		calls = append(calls, stepCall{h: opFuncs[ins.Op], ins: ins})
		return uint16(len(calls) - 1)
	}
	var maxRetire int64
	pending := int64(0) // pure-step retires deferred to the next effect
	pc := start
	done := false

	for !done && len(steps) < maxBlockSteps && pc < pageEnd {
		cs := c.slotAt(pc, pageEnd)
		if cs == nil {
			break
		}
		ins, next := cs.ins, pc+int64(cs.size)

		if ins.Op == visa.JMP {
			target := next + ins.Imm
			if ins.Imm >= 0 && target < pageEnd {
				// Forward jump within the page: fold it away and keep
				// compiling at the target (it retires one instruction).
				pending++
				maxRetire++
				pc = target
				continue
			}
			// Backward or page-leaving jump: pre-bound target.
			steps = append(steps, blockStep{kind: kJmp, imm: target, pending: int16(pending + 1)})
			maxRetire++
			pending = 0
			done = true
			break
		}

		if cc := jccCond[ins.Op]; cc != 0 {
			// Lone conditional branch (flags set by an earlier step or
			// before block entry): the block continues on the
			// fall-through edge; a taken branch exits early.
			steps = append(steps, blockStep{
				kind: kJcc, cc: cc - 1,
				pc: next, next: next + ins.Imm, pending: int16(pending + 1),
			})
			maxRetire++
			pending = 0
			pc = next
			continue
		}

		if terminatesBlock(ins.Op) {
			if ins.Op == visa.CALL {
				steps = append(steps, blockStep{
					kind: kCall, pc: pc, next: next,
					imm: next + ins.Imm, pending: int16(pending + 1),
				})
				maxRetire++
			} else {
				steps = append(steps, blockStep{
					kind: kHandler, call: call(ins),
					pc: pc, next: next, pending: int16(pending),
				})
				maxRetire += maxRetireOf(ins.Op)
			}
			pending = 0
			done = true
			break
		}

		if ins.Op == visa.NOP {
			// Retires but has no effect: fold into the pending count.
			pending++
			maxRetire++
			pc = next
			continue
		}

		if kind, isPure := pureKind(ins.Op); isPure {
			// Peephole: compare + conditional branch. The flag setter
			// and the jcc consuming it become one step evaluating the
			// condition against pre-bound taken/fallthrough targets.
			if js := c.slotAt(next, pageEnd); js != nil && rewrite.IsCmpJccPair(ins, js.ins) {
				j, fall := js.ins, next+int64(js.size)
				s := blockStep{
					cc: jccCond[j.Op] - 1, r1: ins.R1, r2: ins.R2, imm: ins.Imm,
					pc: fall, next: fall + j.Imm, pending: int16(pending + 2),
				}
				switch ins.Op {
				case visa.CMP:
					s.kind = kCmpRRJcc
				case visa.CMPI:
					s.kind = kCmpRIJcc
				default:
					// Wider flag setters (CMPW, TESTB, FCMP) keep their
					// own micro-op followed by the branch step.
					steps = append(steps, bindPureStep(kind, ins))
					s = blockStep{
						kind: kJcc, cc: jccCond[j.Op] - 1,
						pc: fall, next: fall + j.Imm, pending: int16(pending + 2),
					}
				}
				steps = append(steps, s)
				maxRetire += 2
				pending = 0
				pc = fall
				continue
			}
			steps = append(steps, bindPureStep(kind, ins))
			pending++
			maxRetire++
			pc = next
			continue
		}

		// Load, store, push or pop: a memory micro-op whose retire is
		// deferred like a pure step's; it records its PC and the
		// retires deferred before it for the fault path.
		if kind, isMem := memKind(ins.Op); isMem {
			steps = append(steps, blockStep{
				kind: kind, r1: ins.R1, r2: ins.R2, imm: ins.Imm,
				pc: pc, pending: int16(pending),
			})
			pending++
			maxRetire++
			pc = next
			continue
		}

		if ins.Op == opTraceMaskStore {
			// The fill path's fused sandbox mask + store: the andi as
			// its pure micro-op, then the store's memory step at the
			// store's own PC, so a fault reports the store with the
			// mask retired.
			steps = append(steps,
				blockStep{kind: kAndI, r1: ins.R1, imm: visa.StoreMask},
				blockStep{
					kind: storeKind(ins.R3), r1: ins.R2, r2: ins.R1, imm: ins.Imm,
					pc: next - storeInsSize, pending: int16(pending + 1),
				})
			pending += 2
			maxRetire += 2
			pc = next
			continue
		}

		// Effect step: delegate to the threaded handler (exact fault
		// semantics); the block loop credits pending and restores PC.
		steps = append(steps, blockStep{
			kind: kHandler, call: call(ins),
			pc: pc, next: next, pending: int16(pending),
		})
		maxRetire += maxRetireOf(ins.Op)
		pending = 0
		pc = next
	}

	// Fall-through exit (page boundary, step cap, or undecodable
	// successor): credit any deferred retires and land PC on the next
	// instruction. When pending is zero the last step already set PC.
	if !done && pending > 0 {
		steps = append(steps, blockStep{kind: kEnd, pc: pc, pending: int16(pending)})
	}
	if len(steps) == 0 {
		return nil
	}

	p.jit.compiled.Add(1)
	p.jit.compileNanos.Add(time.Since(t0).Nanoseconds())
	return &compiledBlock{epoch: epoch, steps: slices.Clone(steps), calls: slices.Clone(calls), maxRetire: maxRetire}
}
