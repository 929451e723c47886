package vm

import "runtime"

// SandboxHeldMin exports the floor of the held count that forces a
// collection.
const SandboxHeldMin = sandboxHeldMin

// SettleSandboxes collects garbage and waits until the sandbox of every
// unreachable Process has been released. It reports how many sandboxes
// are free and how many are still held (mapped, not released).
func SettleSandboxes() (free, held int) {
	runtime.GC()
	s := &sandboxes
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.reachable() < len(s.live) {
		s.released.Wait()
	}
	return len(s.free), len(s.live)
}

// HeldSandboxes reports how many sandboxes are mapped but not released.
func HeldSandboxes() int {
	s := &sandboxes
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// compiledBlockAt returns the block compiled at pc, or nil.
func (p *Process) compiledBlockAt(pc int64) *compiledBlock {
	if pg := uint64(pc) / PageSize; pg < uint64(len(p.icache)) {
		if c := p.icache[pg].Load(); c != nil {
			return c.block(int(pc & (PageSize - 1)))
		}
	}
	return nil
}

// CachedPages counts the pages whose instruction cache p holds.
func CachedPages(p *Process) int {
	n := 0
	for i := range p.icache {
		if p.icache[i].Load() != nil {
			n++
		}
	}
	return n
}
