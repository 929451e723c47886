package mrt

import (
	"fmt"

	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
)

// Dlopen dynamically links a registered library into the running
// process, following the paper's three steps (§6):
//
//  1. Module preparation — load the code writable-but-not-executable,
//     resolve its relocations, and compute new PLT/GOT targets.
//  2. New CFG generation — merge the library's auxiliary information,
//     patch Bary indexes into the new code, verify it, then flip the
//     pages to executable-not-writable.
//  3. ID-table updates — one update transaction installs the new IDs
//     and rewrites GOT entries between the Tary and Bary phases.
//
// It returns an opaque handle for Dlsym.
func (r *Runtime) Dlopen(name string) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	// Repeated dlopen returns the existing handle (like POSIX).
	for h, dh := range r.handles {
		if dh.name == name {
			return h, nil
		}
	}
	obj, ok := r.libs[name]
	if !ok {
		return 0, fmt.Errorf("mrt: no registered library %q", name)
	}
	// The ABA guard (§5.2): never run so many update transactions
	// between quiescence points that the 14-bit version space could
	// wrap under a parked check transaction.
	if r.Img.Instrumented && r.Tables.ABARisk() {
		return 0, fmt.Errorf("mrt: refusing dlopen: %d update transactions since the last quiescence point (ABA guard)",
			r.Tables.UpdatesSinceQuiescence())
	}
	if obj.Profile != r.Img.Profile {
		return 0, fmt.Errorf("mrt: library %q profile mismatch", name)
	}
	if obj.Instrumented != r.Img.Instrumented {
		return 0, fmt.Errorf("mrt: library %q instrumentation mismatch", name)
	}

	// --- Step 1: module preparation ---
	// Libraries load at page boundaries: their pages flip between
	// writable (while patching) and executable (after verification),
	// and sharing a page with already-executable code would revoke its
	// execute permission mid-run.
	codeBase := (r.codeEnd + vm.PageSize - 1) &^ (vm.PageSize - 1)
	if codeBase+int64(len(obj.Code)) > visa.CodeBase+visa.CodeLimit {
		return 0, fmt.Errorf("mrt: code region exhausted loading %q", name)
	}
	dataBase := (r.dataEnd + vm.PageSize - 1) &^ (vm.PageSize - 1)
	dataSize := int64(len(obj.Data) + obj.BSS)
	if dataBase+dataSize > heapBase {
		return 0, fmt.Errorf("mrt: data region exhausted loading %q", name)
	}

	// Library code is writable and NOT executable while being patched.
	r.Proc.Protect(codeBase, int64(len(obj.Code)), visa.ProtRead|visa.ProtWrite)
	copy(r.Proc.Mem[codeBase:], obj.Code)
	copy(r.Proc.Mem[dataBase:], obj.Data)
	for i := int64(len(obj.Data)); i < dataSize; i++ {
		r.Proc.Mem[dataBase+i] = 0
	}

	// Resolve the library's symbols.
	local := map[string]linker.SymInfo{}
	exports := map[string]linker.SymInfo{}
	for _, s := range obj.Symbols {
		var addr int64
		if s.Kind == module.SymFunc {
			addr = codeBase + int64(s.Offset)
		} else {
			addr = dataBase + int64(s.Offset)
		}
		info := linker.SymInfo{Addr: addr, Kind: s.Kind, Size: s.Size, Module: obj.Name}
		local[s.Name] = info
		if !s.Local {
			if _, dup := r.syms[s.Name]; dup {
				return 0, fmt.Errorf("mrt: symbol %q already defined", s.Name)
			}
			exports[s.Name] = info
		}
	}

	lookup := func(sym string) (linker.SymInfo, bool) {
		if s, ok := local[sym]; ok {
			return s, true
		}
		s, ok := r.syms[sym]
		return s, ok
	}

	// Apply relocations against the library-local + global tables.
	for _, rl := range obj.CodeRelocs {
		sym, ok := lookup(rl.Symbol)
		if !ok {
			return 0, fmt.Errorf("mrt: %s: undefined symbol %q", name, rl.Symbol)
		}
		site := codeBase + int64(rl.Offset)
		switch rl.Kind {
		case module.RelAbs64, module.RelJumpTable:
			put64guest(r.Proc.Mem, site, uint64(sym.Addr+rl.Addend))
		case module.RelCall32:
			rel := sym.Addr - (site + 4)
			for i := int64(0); i < 4; i++ {
				r.Proc.Mem[site+i] = byte(uint32(rel) >> (8 * i))
			}
		default:
			return 0, fmt.Errorf("mrt: unknown relocation kind %d", rl.Kind)
		}
	}
	for _, rl := range obj.DataRelocs {
		sym, ok := lookup(rl.Symbol)
		if !ok {
			return 0, fmt.Errorf("mrt: %s: undefined data symbol %q", name, rl.Symbol)
		}
		put64guest(r.Proc.Mem, dataBase+int64(rl.Offset), uint64(sym.Addr+rl.Addend))
	}

	// --- Step 2: new CFG generation ---
	// Merge rebased aux info. Cross-module address-taken marking: the
	// library may take addresses of functions from the main image and
	// vice versa.
	rebased := rebaseAux(obj.Aux, int(codeBase))
	addrTaken := map[string]bool{}
	for _, rl := range obj.CodeRelocs {
		if rl.Kind == module.RelAbs64 {
			addrTaken[rl.Symbol] = true
		}
	}
	for _, rl := range obj.DataRelocs {
		addrTaken[rl.Symbol] = true
	}
	// Record which pre-existing functions the module's relocations made
	// address-taken — the incremental CFG path republishes exactly those
	// plus the module's own additions — and mark the module's functions
	// before the aux merge.
	var flipped []string
	for i, f := range r.aux.Funcs {
		if addrTaken[f.Name] && !f.AddrTaken {
			r.markAddrTaken(i)
			flipped = append(flipped, f.Name)
		}
	}
	for i := range rebased.Funcs {
		if addrTaken[rebased.Funcs[i].Name] {
			rebased.Funcs[i].AddrTaken = true
		}
	}
	r.aux.Funcs = append(r.aux.Funcs, rebased.Funcs...)
	r.aux.IBs = append(r.aux.IBs, rebased.IBs...)
	r.aux.RetSites = append(r.aux.RetSites, rebased.RetSites...)
	r.aux.SetjmpConts = append(r.aux.SetjmpConts, rebased.SetjmpConts...)
	r.aux.AsmAnnotations = append(r.aux.AsmAnnotations, rebased.AsmAnnotations...)

	if r.Img.Instrumented {
		// Patch Bary indexes into the freshly loaded code, and let the
		// blockjit engine know about its check transactions.
		r.assignBranchIndexes(rebased.IBs)
		r.registerFusedSites(rebased.IBs)
	}

	// Verify the patched module before it becomes executable.
	if r.opts.Verify != nil {
		patched := *obj
		patched.Code = append([]byte(nil), r.Proc.Mem[codeBase:codeBase+int64(len(obj.Code))]...)
		if err := r.opts.Verify(&patched); err != nil {
			return 0, fmt.Errorf("mrt: verification of %q failed: %w", name, err)
		}
	}

	// Code becomes executable and not writable; data stays writable.
	r.Proc.Protect(codeBase, int64(len(obj.Code)), visa.ProtRead|visa.ProtExec)
	if err := r.Proc.CheckWX(); err != nil {
		return 0, err
	}

	// Commit layout and symbols.
	r.codeEnd = codeBase + int64(len(obj.Code))
	r.dataEnd = dataBase + dataSize
	for n, s := range exports {
		r.syms[n] = s
	}

	// --- Step 3: ID-table update (with GOT rewriting in the slot
	// between the Tary and Bary phases, paper §5.2). The delta path
	// publishes only the module's additions — its cost scales with the
	// module, not the program — and falls back to the full rebuild when
	// the module actually merges existing equivalence classes. ---
	if r.Img.Instrumented {
		gotUpdates := func() {
			for sym, slot := range r.Img.GOT {
				if s, ok := r.syms[sym]; ok {
					put64guest(r.Proc.Mem, slot, uint64(s.Addr))
				}
			}
		}
		if err := r.publishDelta(rebased, flipped, gotUpdates); err != nil {
			return 0, err
		}
	} else {
		for sym, slot := range r.Img.GOT {
			if s, ok := r.syms[sym]; ok {
				put64guest(r.Proc.Mem, slot, uint64(s.Addr))
			}
		}
	}

	r.nextHandle++
	h := r.nextHandle
	r.handles[h] = &dlHandle{name: name, exports: exports}
	return h, nil
}

// Dlsym resolves an exported function of a dlopen'ed library. Because
// handing out a function address is an address-taken event, the
// runtime marks the function address-taken and republished the CFG if
// that changed the policy.
func (r *Runtime) Dlsym(handle int64, sym string) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dh, ok := r.handles[handle]
	if !ok {
		return 0, fmt.Errorf("mrt: bad dlopen handle %d", handle)
	}
	s, ok := dh.exports[sym]
	if !ok {
		return 0, fmt.Errorf("mrt: %q does not export %q", dh.name, sym)
	}
	if s.Kind == module.SymFunc && r.Img.Instrumented {
		for i, f := range r.aux.Funcs {
			if f.Name == sym && !f.AddrTaken {
				r.markAddrTaken(i)
				if err := r.publishDelta(module.AuxInfo{}, []string{sym}, nil); err != nil {
					return 0, err
				}
				break
			}
		}
	}
	return s.Addr, nil
}

// rebaseAux shifts all code offsets of an object's aux info by base.
func rebaseAux(in module.AuxInfo, base int) module.AuxInfo {
	var out module.AuxInfo
	for _, f := range in.Funcs {
		f.Offset += base
		out.Funcs = append(out.Funcs, f)
	}
	for _, ib := range in.IBs {
		ib.Offset += base
		if ib.TLoadIOffset >= 0 {
			ib.TLoadIOffset += base
		}
		if ib.CheckStart >= 0 {
			ib.CheckStart += base
		}
		if ib.TableLen > 0 {
			ib.TableOff += base
		}
		ts := make([]int, len(ib.Targets))
		for i, t := range ib.Targets {
			ts[i] = t + base
		}
		ib.Targets = ts
		out.IBs = append(out.IBs, ib)
	}
	for _, rs := range in.RetSites {
		rs.Offset += base
		out.RetSites = append(out.RetSites, rs)
	}
	for _, sc := range in.SetjmpConts {
		out.SetjmpConts = append(out.SetjmpConts, sc+base)
	}
	out.AsmAnnotations = append(out.AsmAnnotations, in.AsmAnnotations...)
	return out
}
