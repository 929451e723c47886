// Package mrt implements the trusted MCFI runtime (paper §4, §7): it
// loads linked images into a fresh sandbox, enforces the invariant
// that no memory is writable and executable at once, interposes on
// every system call, generates the initial CFG and ID tables, and
// performs dynamic linking with table-update transactions.
package mrt

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"

	"mcfi/internal/cfg"
	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/tables"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
)

// Guest memory layout managed by the runtime (addresses within the
// sandbox; see visa layout constants).
const (
	// dataRegionSize bounds static + dynamically loaded module data.
	dataRegionSize = 4 << 20
	// heapBase is where sbrk/mmap allocations start.
	heapBase = visa.DataBase + dataRegionSize
	// stackRegion is carved from the sandbox top.
	stackRegion = 8 << 20
	stackTop    = visa.SandboxSize
	stackBase   = stackTop - stackRegion
	// StackSize is the per-thread stack size.
	StackSize = 1 << 20
)

// Options configures a runtime instance.
type Options struct {
	// Out receives guest writes (default: an internal buffer).
	Out io.Writer
	// ParallelCopy publishes Tary updates with the parallel copier.
	ParallelCopy bool
	// Verify, if non-nil, is invoked on every dynamically loaded
	// module before its code becomes executable (the paper's modular
	// verifier hook, §6 step 2).
	Verify func(*module.Object) error
	// Seed initializes the deterministic guest PRNG.
	Seed uint64
	// Engine selects the VM execution engine (default: the block
	// compiler; vm.EngineInterp decodes every instruction).
	Engine vm.Engine
	// ForceFullCFG disables the incremental dlopen path: every policy
	// change regenerates the full CFG and republishes the whole table
	// extent. The update-throughput benchmark uses it as the baseline.
	ForceFullCFG bool
}

// Runtime is one loaded MCFI program with its tables and threads.
type Runtime struct {
	Proc   *vm.Process
	Img    *linker.Image
	Tables *tables.Tables

	opts Options
	out  io.Writer
	buf  *bytes.Buffer
	outM sync.Mutex

	// Dynamic-linking state, guarded by mu.
	mu sync.Mutex
	// aux is the merged aux info, at absolute addresses. New shares the
	// image's arrays, clipped so appends reallocate; auxFuncsOwned
	// records that aux.Funcs has been copied and may change in place.
	aux           module.AuxInfo
	auxFuncsOwned bool

	syms        map[string]linker.SymInfo
	branchIndex map[int]int // IB offset -> Bary index
	nextBranch  int
	codeEnd     int64 // next free code address
	dataEnd     int64 // next free data address
	brk         int64
	stackNext   int64
	libs        map[string]*module.Object
	handles     map[int64]*dlHandle
	nextHandle  int64
	// incr is the memoized CFG state behind the published policy; nil
	// when the last Extend failed (or ForceFullCFG), in which case the
	// next publication regenerates in full and rebuilds it.
	incr           *cfg.Incremental
	deltaPublishes int64
	fullPublishes  int64

	rngMu sync.Mutex
	rng   uint64

	threadWG sync.WaitGroup

	// ABA quiescence tracking (§5.2): abaSeen records, per live thread,
	// the update-transaction count observed at its most recent system
	// call. When every live thread has been observed at or after the
	// current count, no thread can still hold an old-version ID, and
	// the ABA counter resets.
	abaMu   sync.Mutex
	abaSeen map[*vm.Thread]int64
}

type dlHandle struct {
	name    string
	exports map[string]linker.SymInfo
}

// New loads a linked image into a fresh sandbox and publishes the
// initial control-flow policy.
func New(img *linker.Image, opts Options) (*Runtime, error) {
	r := &Runtime{
		Proc:        vm.NewProcess(),
		Img:         img,
		opts:        opts,
		aux:         clipAux(img.Aux),
		syms:        map[string]linker.SymInfo{},
		branchIndex: map[int]int{},
		libs:        map[string]*module.Object{},
		handles:     map[int64]*dlHandle{},
		rng:         opts.Seed*2862933555777941757 + 3037000493,
		abaSeen:     map[*vm.Thread]int64{},
	}
	if opts.Out != nil {
		r.out = opts.Out
	} else {
		r.buf = &bytes.Buffer{}
		r.out = r.buf
	}
	for k, v := range img.Syms {
		r.syms[k] = v
	}

	p := r.Proc
	p.Handler = r
	p.SetEngine(opts.Engine)

	// Load code and data.
	if visa.CodeBase+len(img.Code) > visa.CodeBase+visa.CodeLimit {
		return nil, fmt.Errorf("mrt: image code exceeds the code region")
	}
	copy(p.Mem[visa.CodeBase:], img.Code)
	copy(p.Mem[visa.DataBase:], img.Data)
	r.codeEnd = int64(visa.CodeBase + len(img.Code))
	r.dataEnd = int64(visa.DataBase + len(img.Data))
	r.brk = heapBase
	r.stackNext = stackTop

	// Page protections: code R+X, data R+W, heap/stack mapped on use.
	p.Protect(visa.CodeBase, int64(len(img.Code)), visa.ProtRead|visa.ProtExec)
	p.Protect(visa.DataBase, dataRegionSize, visa.ProtRead|visa.ProtWrite)
	p.Protect(stackBase, stackRegion, visa.ProtRead|visa.ProtWrite)
	if err := p.CheckWX(); err != nil {
		return nil, err
	}

	if img.Instrumented {
		// The tables live in the sandbox's table region, past the guard
		// band. Update transactions rebuild only the loaded code extent
		// (the paper's Tary is sized to the code region).
		r.Tables = p.MapTables()
		r.Tables.SetCovered(int(r.codeEnd))
		// Every completed update transaction invalidates the fused
		// engine's check-verdict cache: a verdict is only reusable
		// within one published CFG. Full-range transactions (lo == 0)
		// also condemn every compiled block; delta transactions start
		// past address 0 (code begins at visa.CodeBase) and condemn
		// only the blocks overlapping the changed extent.
		r.Tables.OnUpdateExtent(func(lo, hi int) {
			if lo == 0 {
				p.BumpCheckEpoch()
			} else {
				p.BumpCheckEpochExtent(int64(lo), int64(hi))
			}
		})
		r.assignBranchIndexes(img.Aux.IBs)
		r.registerFusedSites(img.Aux.IBs)
		// No thread exists yet and the region is zero, so the first
		// policy needs no transaction.
		graph, err := r.generateCFG()
		if err != nil {
			return nil, err
		}
		r.Tables.Init(graph.TaryECN, r.baryECNs(graph))
		r.published(graph)
	}
	return r, nil
}

// clipAux returns a copy of a's headers whose appends cannot write
// into the spare capacity of a's arrays. The image is shared by every
// runtime built from it, so its arrays must never change.
func clipAux(a module.AuxInfo) module.AuxInfo {
	a.Funcs = slices.Clip(a.Funcs)
	a.IBs = slices.Clip(a.IBs)
	a.RetSites = slices.Clip(a.RetSites)
	a.SetjmpConts = slices.Clip(a.SetjmpConts)
	a.AsmAnnotations = slices.Clip(a.AsmAnnotations)
	return a
}

// markAddrTaken marks r.aux.Funcs[i] address-taken, copying the array
// away from the image first. Caller holds mu.
func (r *Runtime) markAddrTaken(i int) {
	if !r.auxFuncsOwned {
		r.aux.Funcs = slices.Clone(r.aux.Funcs)
		r.auxFuncsOwned = true
	}
	r.aux.Funcs[i].AddrTaken = true
}

// registerFusedSites tells the VM where the image's check transactions
// start — canonical spans and PLT stubs (the GOT-reloading variant)
// alike — so a fusing engine can predecode each into one
// superinstruction. Uninstrumented branches carry CheckStart < 0 and
// are skipped; the VM byte-verifies every registration against its
// templates at predecode time anyway.
func (r *Runtime) registerFusedSites(ibs []module.IndirectBranch) {
	var starts []int64
	for _, ib := range ibs {
		if ib.CheckStart > 0 && ib.TLoadIOffset >= 0 {
			starts = append(starts, int64(ib.CheckStart))
		}
	}
	if len(starts) > 0 {
		r.Proc.RegisterCheckSites(starts)
	}
}

// Output returns everything the guest has written so far (only when
// the runtime owns the buffer).
func (r *Runtime) Output() string {
	if r.buf == nil {
		return ""
	}
	r.outM.Lock()
	defer r.outM.Unlock()
	return r.buf.String()
}

// assignBranchIndexes gives each instrumented indirect branch a stable
// Bary index and patches its TLOADI immediate with the table offset
// (paper §5.1: "MCFI's loader patches the code to embed constant Bary
// table indexes"). Caller holds mu (or is in single-threaded setup).
func (r *Runtime) assignBranchIndexes(ibs []module.IndirectBranch) {
	for _, ib := range ibs {
		if ib.TLoadIOffset < 0 {
			continue
		}
		idx := r.nextBranch
		r.nextBranch++
		r.branchIndex[ib.Offset] = idx
		// TLOADI layout: opcode, register, imm32.
		imm := uint32(r.Tables.BaryBase() + 4*idx)
		off := ib.TLoadIOffset + 2
		r.Proc.Mem[off] = byte(imm)
		r.Proc.Mem[off+1] = byte(imm >> 8)
		r.Proc.Mem[off+2] = byte(imm >> 16)
		r.Proc.Mem[off+3] = byte(imm >> 24)
	}
}

// cfgInput is the generator's input for the merged aux info.
func (r *Runtime) cfgInput() cfg.Input {
	return cfg.Input{
		Funcs:       r.aux.Funcs,
		IBs:         r.aux.IBs,
		RetSites:    r.aux.RetSites,
		SetjmpConts: r.aux.SetjmpConts,
		Annotations: r.aux.AsmAnnotations,
		Profile:     r.Img.Profile,
	}
}

// generateCFG regenerates the control-flow policy from the merged aux
// info.
func (r *Runtime) generateCFG() (*cfg.Graph, error) {
	graph := cfg.Generate(r.cfgInput())
	if graph.Classes >= 1<<14 {
		return nil, fmt.Errorf("mrt: %d equivalence classes exceed the 14-bit ECN space", graph.Classes)
	}
	return graph, nil
}

// baryECNs returns the ECN of each assigned Bary index under graph,
// negative where the index holds no branch of it.
func (r *Runtime) baryECNs(graph *cfg.Graph) []int {
	ecns := make([]int, r.nextBranch)
	for i := range ecns {
		ecns[i] = -1
	}
	for off, idx := range r.branchIndex {
		if ecn, ok := graph.BranchECN[off]; ok {
			ecns[idx] = ecn
		}
	}
	return ecns
}

// published records that graph is the policy now in the tables and
// memoizes its generation state, so the next dlopen can publish a
// delta instead of repeating a full rebuild.
func (r *Runtime) published(graph *cfg.Graph) {
	r.fullPublishes++
	if r.opts.ForceFullCFG {
		r.incr = nil
	} else {
		r.incr = cfg.NewIncremental(r.cfgInput(), graph)
	}
}

// publishCFG regenerates the control-flow policy from the merged aux
// info and publishes it with one update transaction. between runs in
// the transaction's GOT-update slot.
func (r *Runtime) publishCFG(between func()) error {
	graph, err := r.generateCFG()
	if err != nil {
		return err
	}
	bary := r.baryECNs(graph)
	r.Tables.Update(
		func(addr int) int {
			if ecn, ok := graph.TaryECN[addr]; ok {
				return ecn
			}
			return -1
		},
		func(idx int) int {
			if idx < len(bary) {
				return bary[idx]
			}
			return -1
		},
		tables.UpdateOpts{Parallel: r.opts.ParallelCopy, Between: between},
	)
	r.published(graph)
	return nil
}

// publishDelta publishes one module's policy change through the
// incremental CFG state and the tables' delta transaction — O(module),
// not O(program). When the change cannot be expressed incrementally
// (classes merge across modules, ECN exhaustion, an annotation retypes
// an existing function) it falls back to SetCovered plus a full
// publishCFG, which also rebuilds the memoized state. Caller holds mu;
// delta carries rebased (absolute) addresses and flipped names
// pre-existing functions that just became address-taken.
func (r *Runtime) publishDelta(delta module.AuxInfo, flipped []string, between func()) error {
	if r.incr != nil && !r.opts.ForceFullCFG {
		d, ok := r.incr.Extend(cfg.Input{
			Funcs:       delta.Funcs,
			IBs:         delta.IBs,
			RetSites:    delta.RetSites,
			SetjmpConts: delta.SetjmpConts,
			Annotations: delta.AsmAnnotations,
			Profile:     r.Img.Profile,
		}, flipped)
		if ok {
			// The delta's branch numbering is keyed by branch address;
			// the tables want Bary indexes.
			baryECN := make(map[int]int, len(d.BranchECN))
			for off, ecn := range d.BranchECN {
				if idx, exists := r.branchIndex[off]; exists {
					baryECN[idx] = ecn
				}
			}
			r.Tables.UpdateDelta(int(r.codeEnd), d.TaryECN, baryECN,
				tables.UpdateOpts{Parallel: r.opts.ParallelCopy, Between: between})
			r.deltaPublishes++
			return nil
		}
		// Extend may have partially mutated the memoized state before
		// detecting the merge; discard it and regenerate.
		r.incr = nil
	}
	r.Tables.SetCovered(int(r.codeEnd))
	return r.publishCFG(between)
}

// PublishStats reports how many policy publications took the delta
// path vs. a full regeneration since load (the initial publication is
// always full).
func (r *Runtime) PublishStats() (delta, full int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deltaPublishes, r.fullPublishes
}

// Graph exposes the current CFG (regenerated on demand) for metrics
// and the experiment harness.
func (r *Runtime) Graph() *cfg.Graph {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cfg.Generate(r.cfgInput())
}

// RegisterLibrary makes a compiled module available to guest dlopen
// under its module name (the runtime's in-memory filesystem).
func (r *Runtime) RegisterLibrary(obj *module.Object) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.libs[obj.Name] = obj
}

// allocStack carves a fresh thread stack; returns its initial SP.
func (r *Runtime) allocStack() (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.stackNext
	if sp-StackSize < stackBase {
		return 0, fmt.Errorf("mrt: out of stack space")
	}
	r.stackNext -= StackSize
	return sp, nil
}

// MainThread creates the initial thread at the image entry point.
func (r *Runtime) MainThread() (*vm.Thread, error) {
	sp, err := r.allocStack()
	if err != nil {
		return nil, err
	}
	th := r.Proc.NewThread(r.Img.Entry, sp)
	r.trackThread(th)
	return th, nil
}

// trackThread registers a thread for ABA quiescence observation.
func (r *Runtime) trackThread(th *vm.Thread) {
	if r.Tables == nil {
		return
	}
	r.abaMu.Lock()
	r.abaSeen[th] = r.Tables.Updates()
	r.abaMu.Unlock()
}

// untrackThread removes an exited thread from observation.
func (r *Runtime) untrackThread(th *vm.Thread) {
	if r.Tables == nil {
		return
	}
	r.abaMu.Lock()
	delete(r.abaSeen, th)
	r.abaMu.Unlock()
}

// observeSyscall implements the paper's quiescence rule: a thread at a
// system call cannot be inside a check transaction, so it has finished
// using IDs older than the current update count. When every live
// thread has been observed at or after the current count, the ABA
// counter resets to zero.
func (r *Runtime) observeSyscall(th *vm.Thread) {
	if r.Tables == nil {
		return
	}
	cur := r.Tables.Updates()
	r.abaMu.Lock()
	r.abaSeen[th] = cur
	quiesced := true
	for _, seen := range r.abaSeen {
		if seen < cur {
			quiesced = false
			break
		}
	}
	r.abaMu.Unlock()
	if quiesced {
		r.Tables.QuiescencePoint()
	}
}

// Run executes the program to completion (all spawned threads joined
// or the process exited) and returns the exit code.
func (r *Runtime) Run(maxInstr int64) (int64, error) {
	return r.RunContext(context.Background(), maxInstr)
}

// RunContext is Run with host-side cancellation plumbed into the guest:
// when ctx is done, every guest thread is cancelled (vm.Process.Cancel)
// and the call returns vm.ErrCancelled within the VM's poll window —
// no goroutine keeps running the guest afterwards. The watcher
// goroutine is always reaped before returning.
//
// Whenever the main thread stops abnormally (fault, budget, cancel),
// the rest of the process is cancelled too, so spawned guest threads
// cannot outlive the call and leak their host goroutines.
func (r *Runtime) RunContext(ctx context.Context, maxInstr int64) (int64, error) {
	t, err := r.MainThread()
	if err != nil {
		return -1, err
	}
	watchDone := make(chan struct{})
	stopWatch := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			defer close(watchDone)
			select {
			case <-ctx.Done():
				r.Proc.Cancel()
			case <-stopWatch:
			}
		}()
	} else {
		close(watchDone)
	}
	err = t.Run(maxInstr)
	if err != nil && err != vm.ErrExited {
		// Abnormal stop: tear down sibling threads so threadWG.Wait
		// cannot block on a still-spinning guest.
		r.Proc.Cancel()
	}
	r.threadWG.Wait()
	close(stopWatch)
	<-watchDone
	if err == nil || err == vm.ErrExited {
		_, code := r.Proc.Exited()
		return code, nil
	}
	return -1, err
}

// Cancel stops every guest thread of the runtime (idempotent).
func (r *Runtime) Cancel() { r.Proc.Cancel() }

// CheckStats snapshots the process's check-transaction counters.
func (r *Runtime) CheckStats() vm.CheckStats { return r.Proc.CheckStatsSnapshot() }

// Instret returns total retired instructions (all threads).
func (r *Runtime) Instret() int64 { return r.Proc.Instret() }

// Symbol looks up a global symbol's address.
func (r *Runtime) Symbol(name string) (linker.SymInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.syms[name]
	return s, ok
}
