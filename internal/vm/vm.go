// Package vm implements the VISA virtual machine: a flat guest address
// space with page protections, a register-file interpreter, and the
// MCFI table-access instructions wired to the shared ID tables.
//
// The VM is the reproduction's stand-in for the CPU and MMU. Two
// properties matter for fidelity. First, the ID-table instructions
// (TLOAD/TLOADI) perform single atomic 32-bit loads against
// tables.Tables, so guest check transactions genuinely race against
// host-side update transactions, as in the paper's multithreaded
// setting. Second, the interpreter counts retired instructions, which
// is the deterministic cost metric behind the Fig. 5/6 overhead
// experiments (extra executed instrumentation = overhead).
//
// The two engines, enumerated by Engines() in cache.go, retire the
// exact same instruction stream, so the cost metric is
// engine-independent: EngineInterp decodes raw bytes every step and is
// the reference semantics; EngineBlockJIT, the default, predecodes into
// a per-page instruction cache and dispatches cold code through
// per-slot func pointers to the threaded handlers, with
// check-transaction superinstructions (fused.go), branch folding and
// trace superinstructions (threaded.go), and compiles hot straight-line
// blocks into traces of pre-bound steps (blockjit.go).
//
// Every engine reaches guest memory through one accessor per width and
// direction (load8 … store64), with one contract: the range check
// covers the whole access against len(Mem); protection is checked on
// the first byte's page only, so an access may spill into the next
// page; a faulting load zeroes its destination register; the access
// retires before it can fault; push keeps its SP decrement when its
// store faults; and pop, unlike a load, changes neither SP nor its
// destination when it faults.
//
// Guest memory lives outside the Go heap (sandbox.go). NewProcess takes
// an anonymous mapping from a free list, or maps a fresh one; once the
// Process is unreachable a cleanup zeroes the pages Protect ever made
// accessible, and the page after each such range (an access is checked
// on its first byte, so a store may spill into the next page) — the
// only ones the guest or the runtime can have written — and returns
// the mapping to the list. The same mapping holds the MCFI table
// region past the guard band (MapTables), which the release drops
// whole. A sandbox's lifetime is its Process's reachability: there is
// nothing to close. Being outside the heap, Mem and the table region
// are also outside the race detector's view: -race checks the caches,
// epochs and counters, not guest-memory or table accesses.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mcfi/internal/rewrite"
	"mcfi/internal/tables"
	"mcfi/internal/visa"
)

// PageSize is the protection granularity.
const PageSize = 4096

// FaultKind classifies execution faults.
type FaultKind int

// Fault kinds.
const (
	// FaultCFI is a halted check transaction: a control-flow-integrity
	// violation detected by MCFI instrumentation (the hlt of Fig. 4).
	FaultCFI FaultKind = iota
	// FaultDecode is an attempt to execute an invalid encoding.
	FaultDecode
	// FaultMem is an out-of-range or permission-violating access.
	FaultMem
	// FaultExec is execution of non-executable memory.
	FaultExec
	// FaultArith is a division by zero.
	FaultArith
	// FaultSys is an invalid system call.
	FaultSys
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCFI:
		return "CFI violation"
	case FaultDecode:
		return "invalid instruction"
	case FaultMem:
		return "memory fault"
	case FaultExec:
		return "exec fault"
	case FaultArith:
		return "arithmetic fault"
	case FaultSys:
		return "bad syscall"
	}
	return "fault"
}

// CheckKind classifies which MCFI check template raised a CFI fault,
// for the security audit log.
type CheckKind int

// Check kinds.
const (
	// CheckDirect is a raw hlt retired outside any registered check
	// transaction — straight-line execution ran into rewritten padding
	// or a corrupted code span.
	CheckDirect CheckKind = iota
	// CheckIndirect is the canonical Fig. 4 check transaction halting
	// on an indirect branch target the tables refuse.
	CheckIndirect
	// CheckPLT is the PLT-stub (GOT-reloading) check variant.
	CheckPLT
)

// String names the check kind as it appears in audit records.
func (k CheckKind) String() string {
	switch k {
	case CheckIndirect:
		return "indirect"
	case CheckPLT:
		return "plt"
	}
	return "direct"
}

// Fault is a guest execution fault.
type Fault struct {
	Kind FaultKind
	PC   int64
	Msg  string
	// Check and Target classify FaultCFI for the audit log: the check
	// template that halted and the masked branch target it refused
	// (zero for a direct hlt and for non-CFI kinds). They do not
	// appear in Error(), so engine-differential comparisons of error
	// strings are unaffected.
	Check  CheckKind
	Target int64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%s at pc=%#x: %s", f.Kind, f.PC, f.Msg)
}

// ErrExited is returned by Run when the process has exited normally.
var ErrExited = fmt.Errorf("vm: process exited")

// ErrCancelled is returned by Run when the process was cancelled from
// the host side (Process.Cancel) — a timeout or shutdown, NOT a CFI
// fault: callers that classify outcomes by FaultKind must test for it
// with errors.Is before inspecting *Fault.
var ErrCancelled = fmt.Errorf("vm: execution cancelled")

// ErrBudget is the sentinel wrapped by Run's instruction-budget error;
// match it with errors.Is to distinguish budget exhaustion from
// faults.
var ErrBudget = fmt.Errorf("vm: instruction budget exhausted")

// SyscallHandler executes SYS instructions on behalf of a thread. It
// is the MCFI runtime's system-call interposition hook.
type SyscallHandler interface {
	Syscall(t *Thread, num int) error
}

// Process is one guest address space plus shared execution state.
type Process struct {
	// Mem is the flat guest memory: [0, SandboxSize) plus the guard
	// band. It is mapped outside the Go heap and recycled once the
	// Process is unreachable, so no slice of it may outlive the Process.
	Mem []byte
	// sandbox owns Mem's mapping, its dirty-page marks and perms.
	sandbox *sandbox
	// perms holds per-page protection bits, accessed atomically so the
	// dynamic linker can flip page protections while threads run. It
	// views the sandbox's array, which a recycled sandbox hands over
	// all zero.
	perms []uint32

	// Tables is the MCFI table region (nil for baseline builds); the
	// runtime's lives in the sandbox mapping (MapTables).
	Tables *tables.Tables

	// Handler interposes on system calls.
	Handler SyscallHandler

	// engine selects the fetch implementation (default EngineBlockJIT);
	// icache is the per-page predecoded instruction cache it uses, and
	// holds the compiled blocks too. It covers the code region only
	// (icachePages, 8 KiB of pointers).
	engine Engine
	icache [icachePages]atomic.Pointer[pageCache]

	// fused holds the registered check-transaction sites (see
	// fused.go).
	fused fusedState

	// jit holds the block compiler's threshold, epoch, discard floor
	// and counters (EngineBlockJIT; see blockjit.go).
	jit jitState

	exited   atomic.Bool
	exitCode atomic.Int64
	instret  atomic.Int64

	// cancelled is the host-side stop flag (timeouts, shutdown): every
	// thread's Run loop polls it at the flush cadence and returns
	// ErrCancelled. cancelCh is closed on the first Cancel so host-side
	// blocking points (e.g. the runtime's join syscall) can select on
	// cancellation instead of polling.
	cancelled  atomic.Bool
	cancelOnce sync.Once
	cancelCh   chan struct{}

	// Process-wide check-transaction counters, flushed from the
	// per-thread fields at the same watermark cadence as instret (so
	// the hot loop never touches shared cache lines) and read lock-free
	// by serving metrics. checkHalts counts CFI faults and is bumped
	// directly at fault construction — violations are terminal, so
	// contention is irrelevant there.
	checkExecs atomic.Int64
	checkHalts atomic.Int64
	pltExecs   atomic.Int64

	// icacheFills counts cold predecodes into the per-page instruction
	// cache — blockjit's cache-miss side, exported for
	// tracing (a first run on a replica shows a fill burst; a warm
	// run shows none).
	icacheFills atomic.Int64

	// nextTID hands out thread ids; threads tracks live ones.
	nextTID  atomic.Int64
	mu       sync.Mutex
	joinable map[int64]chan int64
}

// NewProcess allocates a guest address space, all zero and with no
// page accessible. The guest memory and its page protections come with
// the sandbox, so it allocates nothing sized by the address space; a
// page cache appears only when code on its page first runs.
func NewProcess() *Process {
	p := &Process{
		joinable: map[int64]chan int64{},
		cancelCh: make(chan struct{}),
	}
	p.attachSandbox()
	return p
}

// Protect sets protection bits on [addr, addr+size). Every W^X
// transition flows through here (the runtime's mmap/mprotect analogue
// and the dlopen load path), so it also drops the predecoded
// instruction cache of the affected pages — before the permission
// flip, so no thread can fill a cache against bytes about to change,
// and after it, so entries decoded from the old bytes cannot survive
// the transition. Pages it makes accessible are marked dirty for good,
// so the sandbox's release clears them and their protection entries.
func (p *Process) Protect(addr, size int64, prot uint32) {
	first := addr / PageSize
	last := (addr + size + PageSize - 1) / PageSize
	p.invalidate(first, last)
	if prot != 0 {
		p.sandbox.markDirty(first, last)
	}
	for pg := first; pg < last && pg < int64(len(p.perms)); pg++ {
		atomic.StoreUint32(&p.perms[pg], prot)
	}
	p.invalidate(first, last)
}

// Prot returns the protection bits of the page containing addr.
func (p *Process) Prot(addr int64) uint32 {
	pg := addr / PageSize
	if pg < 0 || pg >= int64(len(p.perms)) {
		return 0
	}
	return atomic.LoadUint32(&p.perms[pg])
}

// CheckWX reports whether any page is both writable and executable —
// the invariant MCFI's runtime maintains (paper §4).
func (p *Process) CheckWX() error {
	for pg := range p.perms {
		pr := atomic.LoadUint32(&p.perms[pg])
		if pr&visa.ProtWrite != 0 && pr&visa.ProtExec != 0 {
			return fmt.Errorf("vm: page %#x is writable and executable", pg*PageSize)
		}
	}
	return nil
}

// Exit marks the process exited with the given code.
func (p *Process) Exit(code int64) {
	p.exitCode.Store(code)
	p.exited.Store(true)
}

// Exited reports whether the process has exited, and its code.
func (p *Process) Exited() (bool, int64) {
	return p.exited.Load(), p.exitCode.Load()
}

// Cancel requests that every thread of the process stop executing:
// each Run loop observes the flag within its poll window (at most 1024
// retired instructions) and returns ErrCancelled. Idempotent and safe
// from any goroutine; this is how host-side timeouts interrupt a guest
// mid-execution.
func (p *Process) Cancel() {
	p.cancelled.Store(true)
	p.cancelOnce.Do(func() { close(p.cancelCh) })
}

// Cancelled reports whether Cancel has been called.
func (p *Process) Cancelled() bool { return p.cancelled.Load() }

// CancelChan returns a channel closed on the first Cancel, for
// host-side code that blocks on guest progress (e.g. thread join) and
// must also unblock on cancellation.
func (p *Process) CancelChan() <-chan struct{} { return p.cancelCh }

// CheckStats is a lock-free snapshot of the process's MCFI
// check-transaction counters (the serving /metrics source).
type CheckStats struct {
	// Execs counts fused check transactions executed (superinstruction
	// dispatches under blockjit; interp retires checks as
	// ordinary instructions, which do not count here).
	Execs int64
	// Halts counts halted checks — CFI faults — under every engine.
	Halts int64
	// VerdictHits is always 0 and VerdictMisses always Execs: a fused
	// check keeps no verdict between executions, so every one does its
	// table loads. The two fields exist only so perfbench can still
	// report vm.verdict_hit_ratio; they go when that metric does.
	VerdictHits   int64
	VerdictMisses int64
	// PLTExecs counts the subset of Execs that ran the PLT-stub check
	// template (the GOT-reloading variant) — the observable proof that
	// dynamically linked call sites execute fused rather than falling
	// back to per-instruction stepping.
	PLTExecs int64
	// ICacheFills counts cold predecodes into the per-page instruction
	// cache (zero under EngineInterp, which never caches).
	ICacheFills int64
	// Block-compiler counters (EngineBlockJIT; zero elsewhere).
	// JITBlocks counts blocks compiled and JITCompileNanos the host
	// time spent compiling them; JITBlockRuns counts compiled-block
	// dispatches and JITColdSteps single-instruction (cold or
	// budget-edge) dispatches, so hot/cold ratio is
	// BlockRuns/(BlockRuns+ColdSteps); JITDiscards counts blocks
	// dropped, at dispatch or on recompilation, because a full update
	// transaction moved the discard floor past them.
	JITBlocks       int64
	JITCompileNanos int64
	JITBlockRuns    int64
	JITColdSteps    int64
	JITDiscards     int64
}

// CheckStatsSnapshot reads the process-wide counters. Threads flush at
// the same watermark cadence as instret, so in-flight deltas (< 1024
// instructions per running thread) may be missing; after Run returns
// the totals are exact.
func (p *Process) CheckStatsSnapshot() CheckStats {
	execs := p.checkExecs.Load()
	return CheckStats{
		Execs:           execs,
		Halts:           p.checkHalts.Load(),
		VerdictMisses:   execs,
		PLTExecs:        p.pltExecs.Load(),
		ICacheFills:     p.icacheFills.Load(),
		JITBlocks:       p.jit.compiled.Load(),
		JITCompileNanos: p.jit.compileNanos.Load(),
		JITBlockRuns:    p.jit.blockRuns.Load(),
		JITColdSteps:    p.jit.coldSteps.Load(),
		JITDiscards:     p.jit.discards.Load(),
	}
}

// Instret returns the total retired instruction count across all
// threads that have reported so far (threads flush periodically and on
// completion).
func (p *Process) Instret() int64 { return p.instret.Load() }

// PendingInstret returns instructions retired by this thread but not
// yet flushed to the process-wide counter, so
// P.Instret()+t.PendingInstret() counts this thread exactly regardless
// of the engine's flush cadence.
func (t *Thread) PendingInstret() int64 { return t.Instret - t.flushed }

// RegisterThread allocates a thread id and its join channel.
func (p *Process) RegisterThread() (int64, chan int64) {
	tid := p.nextTID.Add(1)
	ch := make(chan int64, 1)
	p.mu.Lock()
	p.joinable[tid] = ch
	p.mu.Unlock()
	return tid, ch
}

// JoinChan returns the join channel for a thread id.
func (p *Process) JoinChan(tid int64) (chan int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, ok := p.joinable[tid]
	return ch, ok
}

// Thread is one virtual CPU.
type Thread struct {
	P *Process
	// Reg is the register file. Architecturally only the first
	// visa.NumRegs entries exist — visa.Decode rejects any register
	// operand >= NumRegs — but the array is sized so a decoded byte
	// operand indexes it without a bounds check in the hot dispatch
	// loop.
	Reg [256]int64
	PC  int64

	// comparison flags (operands of the last CMP-style instruction).
	fa, fb   int64
	ffa, ffb float64
	fFloat   bool

	// Instret counts instructions retired by this thread.
	Instret int64
	// edge is the Instret bound of the current blockjit Run
	// (math.MaxInt64 when it has none). A superinstruction whose next
	// part would retire past it stops on the instruction boundary
	// before that part instead, so ErrBudget lands on the
	// interpreter's instruction.
	edge int64
	// flushed is the portion of Instret already added to the
	// process-wide counter (Run's periodic flush watermark).
	flushed int64

	// FusedExecs counts fused check transactions executed by this
	// thread; FusedPLTExecs the subset that ran the PLT-stub template.
	// Both flush to the process-wide counters at the instret watermark
	// cadence.
	FusedExecs    int64
	FusedPLTExecs int64
	flushedExecs  int64
	flushedPLT    int64

	// JITBlockRuns counts compiled-block dispatches by this thread;
	// JITColdSteps counts its single-instruction dispatches under
	// EngineBlockJIT. Flushed at the same watermark cadence.
	JITBlockRuns     int64
	JITColdSteps     int64
	flushedBlockRuns int64
	flushedColdSteps int64

	// startHits is the block compiler's profile: entries per block
	// start, hashed by pc (startHash), counted toward startThreshold
	// (0 while no block may be compiled). See Thread.noteStart.
	startHits      [1 << startHashBits]uint32
	startThreshold uint32
}

// NewThread creates a thread with its stack pointer set.
func (p *Process) NewThread(pc, sp int64) *Thread {
	t := &Thread{P: p, PC: pc}
	t.Reg[visa.SP] = sp
	return t
}

func (t *Thread) fault(kind FaultKind, format string, args ...interface{}) error {
	if kind == FaultCFI {
		t.P.checkHalts.Add(1)
	}
	return &Fault{Kind: kind, PC: t.PC, Msg: fmt.Sprintf(format, args...)}
}

// cfiFault builds a classified CFI fault: the check template that
// halted plus the masked branch target it refused, for the audit log.
// It bumps checkHalts itself — callers must not also go through fault.
func (t *Thread) cfiFault(check CheckKind, target int64, format string, args ...interface{}) error {
	t.P.checkHalts.Add(1)
	return &Fault{
		Kind: FaultCFI, PC: t.PC, Msg: fmt.Sprintf(format, args...),
		Check: check, Target: target,
	}
}

// cfiHalt classifies a plain hlt retirement by position. The
// interpreter executes check transactions as ordinary instructions,
// so a halted check surfaces here as a hlt at a known offset inside a
// registered site; a hlt anywhere else is a direct control transfer
// into rewritten padding. Classification keeps the Fault identical
// across engines (the differential tests compare faults, and the audit
// log must not depend on the engine).
func (t *Thread) cfiHalt() error {
	check, target := t.classifyHalt()
	return t.cfiFault(check, target, "hlt")
}

func (t *Thread) classifyHalt() (CheckKind, int64) {
	pc := t.PC
	if _, s := t.P.fusedSiteAt(pc - rewrite.CheckHaltOffset); s != nil && s.gotAddr.Load() < 0 {
		return CheckIndirect, int64(uint32(t.Reg[visa.R11]))
	}
	if _, s := t.P.fusedSiteAt(pc - rewrite.PLTCheckHaltOffset); s != nil && s.gotAddr.Load() >= 0 {
		return CheckPLT, int64(uint32(t.Reg[visa.R11]))
	}
	return CheckDirect, 0
}

// Guest memory accessors, one per width (the contract is in the package
// doc). Each is its single fast path: one unsigned compare that puts the
// whole access inside Mem (it also rejects a negative addr), one atomic
// load of the first byte's page protection, then a little-endian get
// or put. Each reports ok=false for anything else and leaves the fault
// to its caller, which builds it with memFault; that keeps every
// accessor within the inliner's budget, so a compiled block's memory
// step and a threaded handler run it without a call.

func (t *Thread) load8(addr int64) (uint8, bool) {
	p := t.P
	if uint64(addr) <= uint64(len(p.Mem)-1) && atomic.LoadUint32(&p.perms[uint64(addr)/PageSize])&visa.ProtRead != 0 {
		return p.Mem[addr], true
	}
	return 0, false
}

func (t *Thread) load16(addr int64) (uint16, bool) {
	p := t.P
	if uint64(addr) <= uint64(len(p.Mem)-2) && atomic.LoadUint32(&p.perms[uint64(addr)/PageSize])&visa.ProtRead != 0 {
		return binary.LittleEndian.Uint16(p.Mem[addr:]), true
	}
	return 0, false
}

func (t *Thread) load32(addr int64) (uint32, bool) {
	p := t.P
	if uint64(addr) <= uint64(len(p.Mem)-4) && atomic.LoadUint32(&p.perms[uint64(addr)/PageSize])&visa.ProtRead != 0 {
		return binary.LittleEndian.Uint32(p.Mem[addr:]), true
	}
	return 0, false
}

func (t *Thread) load64(addr int64) (uint64, bool) {
	p := t.P
	if uint64(addr) <= uint64(len(p.Mem)-8) && atomic.LoadUint32(&p.perms[uint64(addr)/PageSize])&visa.ProtRead != 0 {
		return binary.LittleEndian.Uint64(p.Mem[addr:]), true
	}
	return 0, false
}

func (t *Thread) store8(addr int64, v uint8) bool {
	p := t.P
	if uint64(addr) <= uint64(len(p.Mem)-1) && atomic.LoadUint32(&p.perms[uint64(addr)/PageSize])&visa.ProtWrite != 0 {
		p.Mem[addr] = v
		return true
	}
	return false
}

func (t *Thread) store16(addr int64, v uint16) bool {
	p := t.P
	if uint64(addr) <= uint64(len(p.Mem)-2) && atomic.LoadUint32(&p.perms[uint64(addr)/PageSize])&visa.ProtWrite != 0 {
		binary.LittleEndian.PutUint16(p.Mem[addr:], v)
		return true
	}
	return false
}

func (t *Thread) store32(addr int64, v uint32) bool {
	p := t.P
	if uint64(addr) <= uint64(len(p.Mem)-4) && atomic.LoadUint32(&p.perms[uint64(addr)/PageSize])&visa.ProtWrite != 0 {
		binary.LittleEndian.PutUint32(p.Mem[addr:], v)
		return true
	}
	return false
}

func (t *Thread) store64(addr int64, v uint64) bool {
	p := t.P
	if uint64(addr) <= uint64(len(p.Mem)-8) && atomic.LoadUint32(&p.perms[uint64(addr)/PageSize])&visa.ProtWrite != 0 {
		binary.LittleEndian.PutUint64(p.Mem[addr:], v)
		return true
	}
	return false
}

// memFault is the accessors' cold path: the fault for an n-byte access
// at addr that is out of range or whose first byte's page lacks prot,
// reported at t.PC. Its range test is the literal addr+n form, so an
// access whose addr+n overflows passes it and faults on protection
// instead (its page lies past perms, so Prot reports none).
//
//go:noinline
func (t *Thread) memFault(addr, n int64, prot uint32) error {
	if addr < 0 || addr+n > int64(len(t.P.Mem)) {
		return t.fault(FaultMem, "access %#x+%d out of range", addr, n)
	}
	return t.fault(FaultMem, "access %#x lacks prot %d", addr, prot)
}

// push decrements SP and stores v there; a faulting store keeps the
// decrement.
func (t *Thread) push(v int64) error {
	t.Reg[visa.SP] -= 8
	if sp := t.Reg[visa.SP]; !t.store64(sp, uint64(v)) {
		return t.memFault(sp, 8, visa.ProtWrite)
	}
	return nil
}

// pop loads the word at SP and then increments SP; a faulting load
// leaves SP unchanged.
func (t *Thread) pop() (int64, error) {
	sp := t.Reg[visa.SP]
	v, ok := t.load64(sp)
	if !ok {
		return 0, t.memFault(sp, 8, visa.ProtRead)
	}
	t.Reg[visa.SP] += 8
	return int64(v), nil
}

// setjmp stores SETJ's environment at env: SP, FP, then resume, the
// PC longjmp continues at. A faulting store leaves the later words
// unwritten.
func (t *Thread) setjmp(env, resume int64) error {
	for i, v := range [...]int64{t.Reg[visa.SP], t.Reg[visa.FP], resume} {
		if a := env + 8*int64(i); !t.store64(a, uint64(v)) {
			return t.memFault(a, 8, visa.ProtWrite)
		}
	}
	return nil
}

// cond evaluates a condition code against the flags.
func (t *Thread) cond(cc byte) bool {
	if t.fFloat {
		a, b := t.ffa, t.ffb
		switch cc {
		case visa.CcE:
			return a == b
		case visa.CcNE:
			return a != b
		case visa.CcL, visa.CcB:
			return a < b
		case visa.CcG, visa.CcA:
			return a > b
		case visa.CcLE, visa.CcBE:
			return a <= b
		case visa.CcGE, visa.CcAE:
			return a >= b
		}
		return false
	}
	a, b := t.fa, t.fb
	switch cc {
	case visa.CcE:
		return a == b
	case visa.CcNE:
		return a != b
	case visa.CcL:
		return a < b
	case visa.CcG:
		return a > b
	case visa.CcLE:
		return a <= b
	case visa.CcGE:
		return a >= b
	case visa.CcB:
		return uint64(a) < uint64(b)
	case visa.CcA:
		return uint64(a) > uint64(b)
	case visa.CcBE:
		return uint64(a) <= uint64(b)
	case visa.CcAE:
		return uint64(a) >= uint64(b)
	}
	return false
}

var jccToCond = map[visa.Op]byte{
	visa.JE: visa.CcE, visa.JNE: visa.CcNE, visa.JL: visa.CcL,
	visa.JG: visa.CcG, visa.JLE: visa.CcLE, visa.JGE: visa.CcGE,
	visa.JB: visa.CcB, visa.JA: visa.CcA, visa.JBE: visa.CcBE,
	visa.JAE: visa.CcAE,
}

// jccCond is the dense version of jccToCond for the interpreter loop.
var jccCond [256]byte

func init() {
	for op, cc := range jccToCond {
		jccCond[op] = cc + 1 // 0 means "not a jcc"
	}
}

// flushCounters publishes this thread's retired-instruction and check
// counters to the process-wide atomics (the watermark flush).
func (t *Thread) flushCounters() {
	t.P.instret.Add(t.Instret - t.flushed)
	t.flushed = t.Instret
	t.P.checkExecs.Add(t.FusedExecs - t.flushedExecs)
	t.flushedExecs = t.FusedExecs
	t.P.pltExecs.Add(t.FusedPLTExecs - t.flushedPLT)
	t.flushedPLT = t.FusedPLTExecs
	t.P.jit.blockRuns.Add(t.JITBlockRuns - t.flushedBlockRuns)
	t.flushedBlockRuns = t.JITBlockRuns
	t.P.jit.coldSteps.Add(t.JITColdSteps - t.flushedColdSteps)
	t.flushedColdSteps = t.JITColdSteps
}

// Run executes until process exit, cancellation, a fault, or maxInstr
// instructions (0 = unlimited). It returns ErrExited on clean process
// exit, ErrCancelled if Process.Cancel interrupted the run, and an
// error wrapping ErrBudget when the instruction budget runs out.
//
// The flush/poll cadence uses a watermark rather than Instret%1024: a
// fused step retires several guest instructions at once, so Instret
// skips values and an exact-multiple test would miss flushes.
func (t *Thread) Run(maxInstr int64) error {
	defer t.flushCounters()
	if t.P.engine == EngineBlockJIT {
		return t.runBlockJIT(maxInstr)
	}
	// EngineInterp: step the reference interpreter.
	poll := true
	for {
		if maxInstr > 0 && t.Instret >= maxInstr {
			return fmt.Errorf("%w (limit %d)", ErrBudget, maxInstr)
		}
		if poll || t.Instret-t.flushed >= 1024 {
			if t.P.exited.Load() {
				return ErrExited
			}
			if t.P.cancelled.Load() {
				return ErrCancelled
			}
			t.flushCounters()
			poll = false
		}
		if err := t.Step(); err != nil {
			return err
		}
	}
}

// Step executes one instruction: the interpreter. It decodes the raw
// bytes at PC every time and is the reference the threaded handlers
// (threaded.go) and compiled blocks are tested against, so it never
// routes through them.
func (t *Thread) Step() error {
	pc := t.PC
	if t.P.Prot(pc)&visa.ProtExec == 0 {
		return t.fault(FaultExec, "pc %#x not executable", pc)
	}
	ins, size, err := visa.Decode(t.P.Mem, int(pc))
	if err != nil {
		return t.fault(FaultDecode, "%v", err)
	}
	next := pc + int64(size)
	t.Instret++

	r := &t.Reg
	switch ins.Op {
	case visa.NOP:
	case visa.HLT:
		return t.cfiHalt()
	case visa.MOVI:
		r[ins.R1] = ins.Imm
	case visa.MOV:
		r[ins.R1] = r[ins.R2]
	// Loads write their destination before the error check, so a
	// faulting load clobbers it with zero.
	case visa.LD8:
		addr := r[ins.R2] + ins.Imm
		v, ok := t.load8(addr)
		r[ins.R1] = int64(int8(v))
		if !ok {
			return t.memFault(addr, 1, visa.ProtRead)
		}
	case visa.LD8U:
		addr := r[ins.R2] + ins.Imm
		v, ok := t.load8(addr)
		r[ins.R1] = int64(v)
		if !ok {
			return t.memFault(addr, 1, visa.ProtRead)
		}
	case visa.LD16:
		addr := r[ins.R2] + ins.Imm
		v, ok := t.load16(addr)
		r[ins.R1] = int64(int16(v))
		if !ok {
			return t.memFault(addr, 2, visa.ProtRead)
		}
	case visa.LD16U:
		addr := r[ins.R2] + ins.Imm
		v, ok := t.load16(addr)
		r[ins.R1] = int64(v)
		if !ok {
			return t.memFault(addr, 2, visa.ProtRead)
		}
	case visa.LD32:
		addr := r[ins.R2] + ins.Imm
		v, ok := t.load32(addr)
		r[ins.R1] = int64(int32(v))
		if !ok {
			return t.memFault(addr, 4, visa.ProtRead)
		}
	case visa.LD32U:
		addr := r[ins.R2] + ins.Imm
		v, ok := t.load32(addr)
		r[ins.R1] = int64(v)
		if !ok {
			return t.memFault(addr, 4, visa.ProtRead)
		}
	case visa.LD64:
		addr := r[ins.R2] + ins.Imm
		v, ok := t.load64(addr)
		r[ins.R1] = int64(v)
		if !ok {
			return t.memFault(addr, 8, visa.ProtRead)
		}
	case visa.ST8:
		if addr := r[ins.R2] + ins.Imm; !t.store8(addr, uint8(r[ins.R1])) {
			return t.memFault(addr, 1, visa.ProtWrite)
		}
	case visa.ST16:
		if addr := r[ins.R2] + ins.Imm; !t.store16(addr, uint16(r[ins.R1])) {
			return t.memFault(addr, 2, visa.ProtWrite)
		}
	case visa.ST32:
		if addr := r[ins.R2] + ins.Imm; !t.store32(addr, uint32(r[ins.R1])) {
			return t.memFault(addr, 4, visa.ProtWrite)
		}
	case visa.ST64:
		if addr := r[ins.R2] + ins.Imm; !t.store64(addr, uint64(r[ins.R1])) {
			return t.memFault(addr, 8, visa.ProtWrite)
		}
	case visa.ADD:
		r[ins.R1] += r[ins.R2]
	case visa.SUB:
		r[ins.R1] -= r[ins.R2]
	case visa.MUL:
		r[ins.R1] *= r[ins.R2]
	case visa.DIV:
		if r[ins.R2] == 0 {
			return t.fault(FaultArith, "division by zero")
		}
		r[ins.R1] /= r[ins.R2]
	case visa.MOD:
		if r[ins.R2] == 0 {
			return t.fault(FaultArith, "mod by zero")
		}
		r[ins.R1] %= r[ins.R2]
	case visa.UDIV:
		if r[ins.R2] == 0 {
			return t.fault(FaultArith, "division by zero")
		}
		r[ins.R1] = int64(uint64(r[ins.R1]) / uint64(r[ins.R2]))
	case visa.UMOD:
		if r[ins.R2] == 0 {
			return t.fault(FaultArith, "mod by zero")
		}
		r[ins.R1] = int64(uint64(r[ins.R1]) % uint64(r[ins.R2]))
	case visa.AND:
		r[ins.R1] &= r[ins.R2]
	case visa.OR:
		r[ins.R1] |= r[ins.R2]
	case visa.XOR:
		r[ins.R1] ^= r[ins.R2]
	case visa.SHL:
		r[ins.R1] <<= uint64(r[ins.R2]) & 63
	case visa.SHR:
		r[ins.R1] = int64(uint64(r[ins.R1]) >> (uint64(r[ins.R2]) & 63))
	case visa.SAR:
		r[ins.R1] >>= uint64(r[ins.R2]) & 63
	case visa.NEG:
		r[ins.R1] = -r[ins.R1]
	case visa.NOTI:
		r[ins.R1] = ^r[ins.R1]
	case visa.ADDI:
		r[ins.R1] += ins.Imm
	case visa.CMP:
		t.fa, t.fb, t.fFloat = r[ins.R1], r[ins.R2], false
	case visa.CMPI:
		t.fa, t.fb, t.fFloat = r[ins.R1], ins.Imm, false
	case visa.CMPW:
		t.fa, t.fb, t.fFloat = r[ins.R1]&0xFFFF, r[ins.R2]&0xFFFF, false
	case visa.TESTB:
		t.fa, t.fb, t.fFloat = r[ins.R1]&ins.Imm&0xFF, 0, false
	case visa.JMP:
		next += ins.Imm
	case visa.JE, visa.JNE, visa.JL, visa.JG, visa.JLE, visa.JGE,
		visa.JB, visa.JA, visa.JBE, visa.JAE:
		// handled by the jccCond table below
	case visa.CALL:
		if err := t.push(next); err != nil {
			return err
		}
		next += ins.Imm
	case visa.CALLR:
		if err := t.push(next); err != nil {
			return err
		}
		next = r[ins.R1]
	case visa.JMPR:
		next = r[ins.R1]
	case visa.RET:
		v, err := t.pop()
		if err != nil {
			return err
		}
		next = v
	case visa.PUSH:
		if err := t.push(r[ins.R1]); err != nil {
			return err
		}
	case visa.POP:
		v, err := t.pop()
		if err != nil {
			return err
		}
		r[ins.R1] = v
	case visa.SYS:
		if t.P.Handler == nil {
			return t.fault(FaultSys, "no syscall handler")
		}
		t.PC = next // handlers observe the continuation PC
		if err := t.P.Handler.Syscall(t, int(ins.Imm)); err != nil {
			return err
		}
		if t.P.exited.Load() {
			return ErrExited
		}
		next = t.PC
	case visa.FADD:
		t.fop(&ins, func(a, b float64) float64 { return a + b })
	case visa.FSUB:
		t.fop(&ins, func(a, b float64) float64 { return a - b })
	case visa.FMUL:
		t.fop(&ins, func(a, b float64) float64 { return a * b })
	case visa.FDIV:
		t.fop(&ins, func(a, b float64) float64 { return a / b })
	case visa.FCMP:
		t.ffa = math.Float64frombits(uint64(r[ins.R1]))
		t.ffb = math.Float64frombits(uint64(r[ins.R2]))
		t.fFloat = true
	case visa.CVIF:
		r[ins.R1] = int64(math.Float64bits(float64(r[ins.R1])))
	case visa.CVFI:
		f := math.Float64frombits(uint64(r[ins.R1]))
		switch {
		case math.IsNaN(f):
			r[ins.R1] = 0
		case f >= math.MaxInt64:
			r[ins.R1] = math.MaxInt64
		case f <= math.MinInt64:
			r[ins.R1] = math.MinInt64
		default:
			r[ins.R1] = int64(f)
		}
	case visa.SET:
		if t.cond(ins.R1) {
			r[ins.R2] = 1
		} else {
			r[ins.R2] = 0
		}
	case visa.SX8:
		r[ins.R1] = int64(int8(r[ins.R1]))
	case visa.SX16:
		r[ins.R1] = int64(int16(r[ins.R1]))
	case visa.SX32:
		r[ins.R1] = int64(int32(r[ins.R1]))
	case visa.ZX8:
		r[ins.R1] = int64(uint8(r[ins.R1]))
	case visa.ZX16:
		r[ins.R1] = int64(uint16(r[ins.R1]))
	case visa.AND32:
		r[ins.R1] = int64(uint32(r[ins.R1]))
	case visa.ANDI:
		r[ins.R1] &= ins.Imm
	case visa.TLOAD:
		if t.P.Tables == nil {
			return t.fault(FaultMem, "tload without tables")
		}
		r[ins.R1] = int64(t.P.Tables.Load32(r[ins.R2]))
	case visa.TLOADI:
		if t.P.Tables == nil {
			return t.fault(FaultMem, "tloadi without tables")
		}
		r[ins.R1] = int64(t.P.Tables.Load32(ins.Imm))
	case visa.SETJ:
		if err := t.setjmp(r[ins.R1], next); err != nil {
			return err
		}
		r[visa.R0] = 0
	case visa.JRESTORE:
		t.Reg[visa.SP] = r[ins.R1]
		t.Reg[visa.FP] = r[ins.R2]
		next = r[ins.R3]
	default:
		return t.fault(FaultDecode, "unimplemented opcode %s", ins.Op.Name())
	}

	// Conditional branches.
	if cc := jccCond[ins.Op]; cc != 0 {
		if t.cond(cc - 1) {
			next += ins.Imm
		}
	}
	t.PC = next
	return nil
}

// fop applies a float64 operation on register bit patterns.
func (t *Thread) fop(ins *visa.Instr, f func(a, b float64) float64) {
	a := math.Float64frombits(uint64(t.Reg[ins.R1]))
	b := math.Float64frombits(uint64(t.Reg[ins.R2]))
	t.Reg[ins.R1] = int64(math.Float64bits(f(a, b)))
}
