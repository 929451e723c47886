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
